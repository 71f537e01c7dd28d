"""Command-line entry points.

  canclust analyze --benign <dir|glob> --attack <kind>=<dir|glob> ... --out <dir>
  canclust synth --spec <json> --out <dir>
  canclust simtest --a <capture.csv> --b <capture.csv>

Exit codes: 0 = ran, 2 = configuration error, 3 = data error.
"""

import argparse
import glob
import json
import os
import pickle
import sys
from dataclasses import replace
from pathlib import Path

from .clusim import similarity
from .errors import ConfigError, DataError
from .hierarchy import LINKAGES, agglomerate
from .ingest import parse_capture
from .pipeline import RunConfig, prepare, run, verdict
from .synth import AttackSpec, SynthSpec, generate, inject, write_wide_csv

DISSIMILARITY_ALIASES = {
    "abs": "one_minus_abs_rho",
    "one_minus_abs_rho": "one_minus_abs_rho",
    "signed": "half_one_minus_rho",
    "half_one_minus_rho": "half_one_minus_rho",
}


def _expand(pattern):
    p = Path(pattern)
    if p.is_dir():
        files = sorted(str(f) for f in p.glob("*.csv"))
    else:
        files = sorted(glob.glob(pattern))
    if not files:
        raise ConfigError(f"no capture files match {pattern!r}")
    return files


def _parse_share(jobs, format):
    """Each job's capture, in order, up to and including the first failure, which is kept as its exception."""
    outcomes = []
    for path, labels in jobs:
        try:
            outcomes.append(parse_capture(path, format=format, **labels))
        except Exception as exc:
            outcomes.append(exc)
            break
    return outcomes


def _fork_share(jobs, format, siblings):
    """Start a child that parses jobs and pickles their outcomes to a pipe; (its pid, the pipe's read end)."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns: os._exit skips the parent's cleanup and atexit handlers
        status = 1
        try:
            os.close(r)
            for _pid, fd in siblings:  # so that a sibling's pipe breaks when the parent closes it
                os.close(fd)
            with open(w, "wb") as pipe:
                pickle.dump(_parse_share(jobs, format), pipe, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, r


def _receive_share(pid, fd):
    """The outcomes a child sends; the child is reaped either way."""
    try:
        with open(fd, "rb") as pipe:
            outcomes = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):  # the child died before it wrote all of them
        outcomes = None
    finally:
        _pid, status = os.waitpid(pid, 0)
    if outcomes is None:
        raise RuntimeError(f"capture parser process {pid} exited with status "
                           f"{os.waitstatus_to_exitcode(status)} before sending its captures")
    return outcomes


def _load_captures(jobs, format):
    """Parse (path, labels) jobs on every available CPU: their captures in input order.

    With n processes, this one parses jobs[0::n] and forked children parse
    jobs[k::n]. The first failure in input order is raised, so the error is
    the one that parsing the files one after another gives.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    n = min(len(jobs), cpus) if hasattr(os, "fork") else 1
    children = []  # (pid, pipe read end) of shares 1..n-1, until received
    try:
        for k in range(1, n):
            children.append(_fork_share(jobs[k::n], format, children))
        shares = [_parse_share(jobs[0::n], format)]
        while children:
            shares.append(_receive_share(*children.pop(0)))
    finally:  # after a failure: unread children see a broken pipe and exit
        for pid, fd in children:
            os.close(fd)
            os.waitpid(pid, 0)
    captures = []
    for i in range(len(jobs)):
        outcome = shares[i % n][i // n]  # present: a share stops only after an earlier index's failure
        if isinstance(outcome, Exception):
            raise outcome
        captures.append(outcome)
    return captures


def _add_shared(parser):
    parser.add_argument("--freq", type=float, default=10.0, help="resampling frequency in Hz")
    parser.add_argument("--r", type=float, default=-5.0, help="hierarchy scaling parameter")
    parser.add_argument("--alpha", type=float, default=0.9, help="diffusion continuation probability")
    parser.add_argument("--format", choices=["wide_csv", "long_csv"], default="wide_csv")
    # type= resolves the alias before argparse checks choices
    parser.add_argument("--dissimilarity", default="abs", choices=sorted(DISSIMILARITY_ALIASES),
                        type=lambda s: DISSIMILARITY_ALIASES.get(s, s), help="correlation-to-distance transform")
    parser.add_argument("--allow-intersection", action="store_true",
                        help="compare captures on their common signals when pruning differs")


def _cmd_analyze(args):
    # every parameter, attack kinds included, is checked before any file is parsed
    patterns = {}  # kind -> its patterns, in command-line order
    for spec in args.attack:
        if "=" not in spec:
            raise ConfigError(f"--attack expects <kind>=<dir|glob>, got {spec!r}")
        kind, pattern = spec.split("=", 1)
        patterns.setdefault(kind, []).append(pattern)
    config = RunConfig(
        attack_capture_groups=dict.fromkeys(patterns, ()),
        frequency_hz=args.freq,
        linkages=tuple(l.strip() for l in args.linkage.split(",") if l.strip()),
        r=args.r,
        alpha=args.alpha,
        significance=args.significance,
        dissimilarity=args.dissimilarity,
        allow_intersection=args.allow_intersection,
        output_dir=args.out,
    )
    config.check_parameters()
    # benign files, then each kind's, in the order run() takes the captures
    benign = [(path, {}) for path in _expand(args.benign)]
    attacks = [(path, {"label": "attack", "attack_kind": kind})
               for kind, pats in patterns.items() for p in pats for path in _expand(p)]
    captures = _load_captures(benign + attacks, args.format)
    attack_groups = {kind: tuple(c for c in captures[len(benign):] if c.attack_kind == kind) for kind in patterns}
    config = replace(config, benign_captures=tuple(captures[:len(benign)]), attack_capture_groups=attack_groups)
    summary, _tally = verdict(run(config))
    print(summary)
    return 0


def _synth_capture(entry, defaults):
    """The capture one synth spec entry describes, attack applied; a spec mistake is a ConfigError."""
    name = f"capture {entry.get('id')!r}"
    attack = entry.get("attack")
    # TypeError/ValueError: an unknown, missing, mistyped or out-of-range field; DataError: an
    # attack that does not fit the generated capture (unknown target, late window, non-binary flip)
    try:
        fields = {**defaults, **{k: v for k, v in entry.items() if k not in ("id", "attack")}}
        cap = generate(SynthSpec(**fields), capture_id=entry.get("id"))
        if attack:
            aspec = AttackSpec(kind=attack["kind"], target_signals=attack["targets"],
                               start_s=attack["start_s"], end_s=attack["end_s"])
            cap = inject(cap, aspec, seed=attack.get("seed", 0))
    except KeyError as exc:  # attack[...] is the only key lookup
        raise ConfigError(f"{name}: attack has no {exc} key") from None
    except (TypeError, ValueError, DataError) as exc:
        raise ConfigError(f"{name}: {exc}") from None
    return cap


def _cmd_synth(args):
    try:
        with open(args.spec, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise DataError(f"{args.spec}: not a JSON document ({exc})") from None
    if not (isinstance(doc, dict) and isinstance(doc.get("captures"), list)):
        raise DataError(f"{args.spec}: a spec is a JSON object with a 'captures' list")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    for k, entry in enumerate(doc["captures"]):
        if not isinstance(entry, dict):
            raise ConfigError(f"captures[{k}] must be a JSON object, got {entry!r}")
        cap = _synth_capture(entry, doc.get("defaults", {}))
        filename = f"{cap.capture_id}.csv"
        write_wide_csv(cap, out / filename)
        manifest.append({"path": filename, "capture_id": cap.capture_id,
                         "label": cap.label, "attack_kind": cap.attack_kind})
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump({"files": manifest}, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(manifest)} captures to {out}")
    return 0


def _cmd_simtest(args):
    # every parameter is checked before either file is parsed
    params = RunConfig(frequency_hz=args.freq, linkages=(args.linkage_single,), r=args.r,
                       alpha=args.alpha).check_parameters()
    dends = []
    for cap in _load_captures([(args.a, {}), (args.b, {})], args.format):
        _m, _c, d = prepare(cap, args.freq, args.dissimilarity)
        dends.append(agglomerate(d, args.linkage_single))
    score = similarity(dends[0], dends[1], params, allow_intersection=args.allow_intersection)
    print(json.dumps({"capture_a": Path(args.a).stem, "capture_b": Path(args.b).stem,
                      "linkage": args.linkage_single, "r": params.r, "alpha": params.alpha,
                      "similarity": score.value}))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="canclust",
                                     description="CAN masquerade-attack forensics via signal clustering similarity")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full forensic pipeline")
    p.add_argument("--benign", required=True, help="directory or glob of benign capture files")
    p.add_argument("--attack", action="append", default=[], metavar="KIND=PATTERN",
                   help="attack captures, e.g. correlated=attacks/corr_*.csv (repeatable)")
    p.add_argument("--linkage", default="single,complete,average,ward",
                   help=f"comma-separated subset of {','.join(LINKAGES)}")
    p.add_argument("--significance", type=float, default=0.05)
    p.add_argument("--out", required=True, help="output directory for report and curves")
    _add_shared(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("synth", help="generate synthetic captures from a JSON spec")
    p.add_argument("--spec", required=True, help="JSON spec with defaults and a captures list")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("simtest", help="similarity of a single capture pair (debug)")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--linkage", dest="linkage_single", default="ward", choices=LINKAGES)
    _add_shared(p)
    p.set_defaults(func=_cmd_simtest)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry points.

  canclust analyze --benign <dir|glob> --attack <kind>=<dir|glob> ... --out <dir>
  canclust synth --spec <json> --out <dir>
  canclust simtest --a <capture.csv> --b <capture.csv>

Exit codes: 0 = ran, 2 = configuration error, 3 = data error.
"""

import argparse
import json
import sys
from pathlib import Path

from .clusim import similarity
from .correlation import DISSIMILARITIES
from .errors import ConfigError, DataError
from .hierarchy import LINKAGES
from .ingest import parse_capture
from .pipeline import RunConfig, fan_out, summarize


def _expand(pattern):
    import glob  # only analyze expands patterns

    p = Path(pattern)
    if p.is_dir():
        files = sorted(str(f) for f in p.glob("*.csv"))
    else:
        files = sorted(glob.glob(pattern))
    if not files:
        raise ConfigError(f"no capture files match {pattern!r}")
    return files


def _summarize_files(paths, format, config):
    """summarize() each file's capture where it is parsed: the summaries in input order."""
    return fan_out(lambda path: summarize(parse_capture(path, format=format), config), paths)


def _config(args, **fields):
    """The RunConfig of the options given in args, and of fields; RunConfig's defaults for the rest."""
    return RunConfig(**{f: getattr(args, f) for f in RunConfig._fields if f in args}, **fields)


def _add_shared(parser):
    # an option left out is absent from the parsed args (default=SUPPRESS), so its RunConfig field keeps its default
    parser.add_argument("--freq", dest="frequency_hz", type=float, default=argparse.SUPPRESS,
                        help="resampling frequency in Hz")
    parser.add_argument("--r", dest="r", type=float, default=argparse.SUPPRESS, help="hierarchy scaling parameter")
    parser.add_argument("--alpha", dest="alpha", type=float, default=argparse.SUPPRESS,
                        help="diffusion continuation probability")
    parser.add_argument("--format", choices=["wide_csv", "long_csv"], default="wide_csv")
    parser.add_argument("--dissimilarity", dest="dissimilarity", default=argparse.SUPPRESS,
                        choices=DISSIMILARITIES, help="correlation-to-distance transform")
    parser.add_argument("--allow-intersection", dest="allow_intersection", action="store_true",
                        default=argparse.SUPPRESS, help="compare captures on their common signals when pruning differs")


def _cmd_analyze(args):
    from .report import check_sources, conclude, verdict, write_outputs  # only analyze compares many captures

    # every parameter, attack kinds included, is checked before any file is parsed
    patterns = {}  # kind -> its patterns, in command-line order
    for spec in args.attack:
        if "=" not in spec:
            raise ConfigError(f"--attack expects <kind>=<dir|glob>, got {spec!r}")
        kind, pattern = spec.split("=", 1)
        patterns.setdefault(kind, []).append(pattern)
    config = _config(args)
    # benign files, then each kind's, as run() orders captures; a capture's id is its file's stem
    benign = [(Path(f).stem, f) for f in _expand(args.benign)]
    attacks = {kind: [(Path(f).stem, f) for p in pats for f in _expand(p)] for kind, pats in patterns.items()}
    sources = check_sources(benign, attacks)
    paths = [f for group in sources.values() for _cap_id, f in group]
    report = conclude(config, sources, _summarize_files(paths, args.format, config))
    write_outputs(report, args.out)
    summary, _tally = verdict(report)
    print(summary)
    return 0


def _cmd_synth(args):
    from .synth import write_spec_corpus

    print(f"wrote {write_spec_corpus(args.spec, args.out)} captures to {Path(args.out)}")
    return 0


def _cmd_simtest(args):
    # every parameter is checked before either file is parsed
    config = _config(args, linkages=(args.linkage_single,))
    (_, (dend_a,)), (_, (dend_b,)) = _summarize_files([args.a, args.b], args.format, config)
    try:
        score = similarity(dend_a, dend_b, config.params, allow_intersection=config.allow_intersection)
    except DataError as exc:  # element sets that cannot be compared
        named = (f"{Path(path).stem!r} ({path})" for path in (args.a, args.b))
        raise DataError(f"captures {' and '.join(named)}: {exc}") from None
    print(json.dumps({"capture_a": Path(args.a).stem, "capture_b": Path(args.b).stem,
                      "linkage": args.linkage_single, "r": config.r, "alpha": config.alpha,
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
    p.add_argument("--linkage", dest="linkages", default=argparse.SUPPRESS,
                   type=lambda s: tuple(l.strip() for l in s.split(",") if l.strip()),
                   help=f"comma-separated subset of {','.join(LINKAGES)}")
    p.add_argument("--significance", dest="significance", type=float, default=argparse.SUPPRESS)
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

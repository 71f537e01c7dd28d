"""canclust benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload road-sparse --seed 0 --seconds 40 --trace 0

Run from the root of a canclust checkout; the program is imported from its
src/ directory. Inputs are generated from --seed by this directory's own
code (inputs.py) before anything is timed. Every operation's output is
checked (check.py). The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1. The lines
before it give the same numbers as a table, plus the environment.
See README.md for the workloads and what each metric should move.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1  # one operation in flight, one BLAS thread: at most nproc threads
BLAS_ENV = {var: str(BLAS_THREADS) for var in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)  # before numpy loads, and inherited by every child

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

SETUP_PROBES = 4  # fresh-interpreter imports of canclust.cli, spread over the measuring window
TIME_LIMIT_S = 170  # a run must end within 180 s
END_TO_END = {"op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Workload:
    kind: str  # "analyze" (in-process run) or "simtest" (CLI subprocess per query)
    corpus: object  # inputs.WideCorpus or inputs.SparseCorpus
    sensitivity: float = 1.0  # share of the host's slowdown its operations take (speed.py)
    cli_args: tuple = ()


# why each workload exists: README.md and BENCHMARK.json
WORKLOADS = {
    "road-sparse": Workload(
        "analyze", inputs.SparseCorpus(n_groups=8, per_group=4, duration_s=180.0, rates_hz=(20, 10, 4, 2),
                                       n_benign=12, n_break=2, n_max_value=2,
                                       constant_pool=6, constant_per_capture=2),
        sensitivity=0.9, cli_args=("--format", "long_csv", "--allow-intersection")),
    "simtest-cli": Workload(
        "simtest", inputs.WideCorpus(n_groups=32, per_group=4, duration_s=60.0, rate_hz=10.0,
                                     n_benign=3, n_break=1),
        sensitivity=0.8),
}


def generate(workload, seed, in_dir):
    """Write the workload's captures; return (manifest, job fields)."""
    corpus = workload.corpus
    if isinstance(corpus, inputs.SparseCorpus):
        manifest = inputs.write_sparse_corpus(corpus, seed, in_dir)
    else:
        manifest = inputs.write_wide_corpus(corpus, seed, in_dir)
    if workload.kind == "analyze":
        kinds = sorted({m["attack_kind"] for m in manifest if m["label"] == "attack"})
        args = ["--benign", str(in_dir / "benign_*.csv")]
        for kind in kinds:
            args += ["--attack", f"{kind}={in_dir / kind}_*.csv"]
        return manifest, {"cli_args": args + list(workload.cli_args)}
    return manifest, {"queries": simtest_queries(manifest, seed)}


def simtest_queries(manifest, seed):
    """Every (pair, linkage) once per cycle; pair order drawn from the seed, linkage rotating."""
    pairs = list(combinations([m["path"] for m in manifest], 2))
    order = np.random.default_rng(seed).permutation(len(pairs))
    return [{"a": pairs[p][0], "b": pairs[p][1], "linkage": linkage}
            for p in order for linkage in inputs.LINKAGES]


def child_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_ENV)


def run_worker(job, job_path, deadline):
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    # own process group, so a kill also reaches the simtest processes it started
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(job_path)], env=child_env(),
                            stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    with open(job["result_path"], encoding="utf-8") as fh:
        return json.load(fh)


def environment(seed):
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def load_reference():
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def inputs_of(workload, seed, in_dir, reference):
    """Generate the captures of one seed; return the worker's entry for them."""
    manifest, fields = generate(workload, seed, in_dir)
    return {"manifest": manifest, "reference": reference, **fields}


def run_workload(name, workload, seed, seconds, trace, work_dir, reference=None):
    """Generate inputs, measure, check; return (result line, worker outcome, table lines).

    reference is reference.json's document, or None for no reference check.
    Operations on `seed` are timed. If the reference was made on another
    seed, operations on its inputs follow, untimed, and are checked against
    it: on the reference seed itself the timed operations are.
    """
    deadline = time.monotonic() + TIME_LIMIT_S
    ref_seed = reference["seed"] if reference else None
    ref_doc = reference["workloads"][name] if reference else None
    timed = inputs_of(workload, seed, work_dir / "inputs", ref_doc if seed == ref_seed else None)
    reference_check = None
    if reference and seed != ref_seed:
        reference_check = inputs_of(workload, ref_seed, work_dir / "reference-inputs", ref_doc)
        if workload.kind == "simtest":  # one pair, every linkage
            reference_check["queries"] = reference_check["queries"][:len(inputs.LINKAGES)]
    job = {"kind": workload.kind, "src": str(ROOT / "src"), "linkages": list(inputs.LINKAGES),
           "seconds": seconds, "trace": bool(trace), "setup_probes": 0 if trace else SETUP_PROBES,
           "timed": timed, "reference_check": reference_check,
           "work_dir": str(work_dir), "out_dir": str(work_dir / "out"),
           "result_path": str(work_dir / "result.json"), "op_timeout": TIME_LIMIT_S}
    res = run_worker(job, work_dir / "job.json", deadline)

    ops = res["ops"]
    checked = ops + res["reference_ops"]
    failed = sum(1 for op in checked if op["problems"])
    good = [op for op in ops if not op["problems"]] or ops
    lines = [f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}",
             f"  operations {len(ops)} timed + {len(res['reference_ops'])} on reference seed {ref_seed}"
             f"  failed {failed}  failed_frac {failed / len(checked):.3g}"]
    for op in checked:
        for problem in op["problems"][:3]:
            lines.append(f"  op failed: {problem}")
    if not trace:
        op_p50, op_raw = speed.corrected_median([(op["wall_s"], op["speed"]) for op in good],
                                                           workload.sensitivity)
        setup, setup_raw = speed.corrected_median([(p["wall_s"], p["speed"]) for p in res["setup"]],
                                                                speed.IMPORT_SENSITIVITY)
        metrics = {"op_p50_s": op_p50, "setup_s": setup, "peak_rss_mb": res["peak_rss_mb"]}
        units = END_TO_END
        extra = (f"  set-up probes {len(res['setup'])}\n  times are host-corrected (speed.py); uncorrected medians:"
                 f" {op_raw:.6g} s per operation, {setup_raw:.6g} s set-up")
    else:
        traced = [op["wall_s"] for op in ops if op["traced"]]
        untraced = [op["wall_s"] for op in ops if not op["traced"]]
        op_extra = {i: op for i, op in enumerate(ops) if op["traced"]}
        metrics, counts_repeat = spans.layer_metrics(res["spans"], op_extra, untraced, traced, res["import_s"])
        units = spans.LAYER_METRICS
        extra = "  work counts repeat on every traced operation" if counts_repeat else \
            "  finding: work counts differ between traced operations"
        if res["missing"]:
            extra += "\n  finding: lookup sites gone, not traced: " + ", ".join(res["missing"])
        spans_dir = ROOT / ".bench_build" / "traces"
        spans_dir.mkdir(parents=True, exist_ok=True)
        (spans_dir / f"{name}-seed{seed}.json").write_text(json.dumps(res["spans"]), encoding="utf-8")
    for metric, value in metrics.items():
        lines.append(f"  {metric:32s} {value:12.6g} {units[metric]}")
    lines.append(extra)
    result = {"correct": failed == 0, "attempted": len(checked), "failed": failed,
              "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}
    return result, res, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "canclust" / "cli.py").is_file():
        print(f"no canclust sources under {ROOT / 'src'}; run from a canclust checkout", file=sys.stderr)
        return 2

    work_dir = ROOT / ".bench_build" / f"run-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        result, _res, lines = run_workload(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                                           args.trace, work_dir, load_reference())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("\n".join(lines))
    print("env " + json.dumps(environment(args.seed)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

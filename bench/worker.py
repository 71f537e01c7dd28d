"""Run one workload's operations in a process of their own and write the outcome.

    python3 bench/worker.py <job.json>

The job file (written by run.py) names the workload kind, its inputs, the
measuring time and whether to trace. Operations run in a closed loop, one
in flight: a new one starts while less than `seconds` have passed since the
first. Each operation's output is checked right after it, outside its timing.

analyze: in-process `canclust.cli.main(["analyze", ...])`, which builds the
    RunConfig and calls canclust.pipeline.run(), from capture files on disk
    to report.json, similarities.jsonl and the density CSVs.
simtest: sequential `canclust simtest` subprocesses, each a fresh
    interpreter; timed ones run the CLI through cli_child.py, which adds
    the speed probe (or the tracer), the others through `python -m canclust.cli`.

In an untraced run every timed operation, and every set-up probe, runs
under speed.Probe, which samples the host's speed from inside the process
doing the work; the result carries each one's wall time and probe summary
(speed.py). The set-up probes (a fresh interpreter importing canclust.cli)
are spread over the measuring window: probe k runs before the first
operation that starts after k/n of the window, so they sample the whole
window rather than one moment. In a traced run every second operation is
traced (the first one included) and the others are not, so the difference
between the two medians is the tracing overhead. After the window, the job's reference
check (if any) runs its operations on the reference seed's inputs, untimed.
"""

import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import check
import spans
import speed

HERE = Path(__file__).resolve().parent
IMPORT_PROBE = f"""
import json, sys, time
sys.path.insert(0, {str(HERE)!r})
import speed
with speed.Probe() as probe:
    start = time.perf_counter()
    import canclust.cli
    wall = time.perf_counter() - start
print(json.dumps({{"wall_s": wall, "speed": probe.summary()}}))
"""


def _dir_bytes(path):
    return sum(f.stat().st_size for f in Path(path).iterdir() if f.is_file())


def _import_cli(src):
    """Import canclust.cli from src; return (module, import time in seconds)."""
    sys.path.insert(0, src)
    start = time.perf_counter()
    import canclust.cli
    elapsed = time.perf_counter() - start
    where = Path(canclust.cli.__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise SystemExit(f"canclust was imported from {where}, not from {src}")
    return canclust.cli, elapsed


def import_probe(timeout):
    """Time `import canclust.cli` in a fresh interpreter, under the speed probe."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                          timeout=timeout, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(job, operation):
    """Closed loop of operation(op_id) for job["seconds"], with the set-up probes spread over it."""
    ops, setup = [], []
    n_probes, seconds = job["setup_probes"], job["seconds"]
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        while len(setup) < n_probes and time.perf_counter() - start >= len(setup) * seconds / n_probes:
            setup.append(import_probe(job["op_timeout"]))
        ops.append(operation(len(ops)))
    while len(setup) < n_probes:
        setup.append(import_probe(job["op_timeout"]))
    return ops, setup


def run_analyze(job):
    cli, import_s = _import_cli(job["src"])
    all_spans, missing = [], set()
    first = {}

    def operation(op_id, inputs, repeat_key=None, traced=False, probed=False):
        argv = ["analyze", "--out", job["out_dir"], *inputs["cli_args"]]
        shutil.rmtree(job["out_dir"], ignore_errors=True)
        tracer = spans.Tracer(op=op_id)
        restore = []
        if traced:
            restore, miss = spans.install(tracer)
            missing.update(miss)
        problems = []
        probe = speed.Probe() if probed else contextlib.nullcontext()
        with probe:
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
            except SystemExit as exc:  # the CLI rejected its arguments
                code = exc.code
            except Exception as exc:  # a crash is a failed operation, not a harness error
                code = f"raised {exc!r}"
            wall = time.perf_counter() - t0
        spans.uninstall(restore)
        all_spans.extend(tracer.spans)
        if code != 0:
            problems.append(f"analyze exited {code}")
        else:
            summary, found = check.analyze_outputs(job["out_dir"], inputs["manifest"], job["linkages"])
            problems += found
            if summary is not None:
                if inputs["reference"] is not None:
                    problems += check.compare_analyze(summary, inputs["reference"])
                if repeat_key in first:
                    problems += check.compare_analyze(summary, first[repeat_key], what="first operation")
                elif repeat_key is not None:
                    first[repeat_key] = summary
        return {"wall_s": wall, "traced": traced, "problems": problems,
                "speed": probe.summary() if probed else None,
                "output_bytes": _dir_bytes(job["out_dir"]) if code == 0 else 0}

    timed = job["timed"]
    ops, setup = measure(job, lambda op_id: operation(op_id, timed, "timed", job["trace"] and op_id % 2 == 0,
                                                      not job["trace"]))
    ref_ops = []
    if job["reference_check"] is not None:
        ref_ops.append(operation(len(ops), job["reference_check"]))
    return {"ops": ops, "reference_ops": ref_ops, "setup": setup, "spans": all_spans,
            "import_s": [import_s], "missing": sorted(missing),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "summary": first.get("timed")}


def run_simtest(job):
    all_spans, import_times, missing = [], [], set()
    seen = {}

    def operation(op_id, query, reference, traced=False, probed=False, repeat=False):
        args = ["simtest", "--a", query["a"], "--b", query["b"], "--linkage", query["linkage"]]
        child_path = os.path.join(job["work_dir"], f"child-op{op_id}.json")
        if traced or probed:
            mode = "trace" if traced else "speed"
            cmd = [sys.executable, str(HERE / "cli_child.py"), mode, child_path, str(op_id), *args]
        else:
            cmd = [sys.executable, "-m", "canclust.cli", *args]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=job["op_timeout"])
            code, out = proc.returncode, proc.stdout
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            code, out = "timed out", ""
        wall = time.perf_counter() - t0
        problems = []
        if code != 0:
            problems.append(f"simtest exited {code}")
        else:
            a_id, b_id = Path(query["a"]).stem, Path(query["b"]).stem
            key = check.key(a_id, b_id, query["linkage"])
            value, problems = check.simtest_output(out, a_id, b_id, query["linkage"])
            if value is not None:
                if reference is not None and key not in reference["pairs"]:
                    problems.append(f"simtest {key}: not in the reference")
                elif reference is not None:
                    problems += check.compare_simtest(value, reference["pairs"][key], key)
                if repeat and key in seen:
                    problems += check.compare_simtest(value, seen[key], key, what="first query")
                elif repeat:
                    seen[key] = value
        summary = None
        if (traced or probed) and code == 0:
            with open(child_path, encoding="utf-8") as fh:
                doc = json.load(fh)
            if traced:
                all_spans.extend(doc["spans"])
                import_times.append(doc["import_s"])
                missing.update(doc["missing"])
            else:
                summary = doc["speed"]
        return {"wall_s": wall, "traced": traced, "problems": problems, "speed": summary}

    timed = job["timed"]
    queries = timed["queries"]
    ops, setup = measure(job, lambda op_id: operation(op_id, queries[op_id % len(queries)], timed["reference"],
                                                      job["trace"] and op_id % 2 == 0, not job["trace"],
                                                      repeat=True))
    ref = job["reference_check"]
    ref_ops = [] if ref is None else [operation(len(ops) + i, q, ref["reference"])
                                      for i, q in enumerate(ref["queries"])]
    return {"ops": ops, "reference_ops": ref_ops, "setup": setup, "spans": all_spans,
            "import_s": import_times, "missing": sorted(missing),
            # the largest query process: each one runs a whole query
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "summary": seen}


def main(job_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    result = (run_analyze if job["kind"] == "analyze" else run_simtest)(job)
    with open(job["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])

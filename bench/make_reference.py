"""Write reference.json: the outputs the program gives on the reference seed.

    python3 bench/make_reference.py [--seed 0]

Run this only on the commit whose outputs are the reference; every later
run on that seed is checked against the file. For each analyze workload it
stores every verdict, test method, p-value and similarity of one run; for
simtest-cli the similarity of every (pair, linkage) query.
"""

import argparse
import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import check
import run


def simtest_reference(workload, seed, work_dir):
    manifest, fields = run.generate(workload, seed, work_dir / "inputs")
    sys.path.insert(0, str(run.ROOT / "src"))
    import canclust.cli

    pairs = {}
    for q in fields["queries"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = canclust.cli.main(["simtest", "--a", q["a"], "--b", q["b"], "--linkage", q["linkage"]])
        a, b = Path(q["a"]).stem, Path(q["b"]).stem
        value, problems = check.simtest_output(buf.getvalue(), a, b, q["linkage"])
        if code != 0 or problems:
            raise SystemExit(f"simtest {a} {b} {q['linkage']} failed: {code} {problems}")
        pairs[check.key(a, b, q["linkage"])] = value
    return {"pairs": pairs}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip()
    doc = {"seed": args.seed, "commit": commit, "workloads": {}}
    for name, workload in run.WORKLOADS.items():
        work_dir = run.ROOT / ".bench_build" / f"reference-{name}"
        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir(parents=True)
        try:
            if workload.kind == "analyze":
                result, res, lines = run.run_workload(name, workload, args.seed, 0, 0, work_dir)
                if not result["correct"]:
                    raise SystemExit("\n".join(lines))
                doc["workloads"][name] = res["summary"]
            else:
                doc["workloads"][name] = simtest_reference(workload, args.seed, work_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        print(f"{name}: reference written", flush=True)
    (run.HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

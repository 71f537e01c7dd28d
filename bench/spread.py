"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 bench/spread.py --workloads road-sparse,simtest-cli --seeds 1-10 [--out summary.json]

Each run is a separate `python3 bench/run.py ... --trace 0` process with
BENCHMARK.json's run_seconds, as a real run would be. For every workload and
end-to-end metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread: the distance
between the quartiles as a share of the median. --out writes the same
numbers, every run's value and the environment as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SECONDS = str(json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"])


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--out")
    args = parser.parse_args()
    doc = {"seeds": args.seeds, "seconds": SECONDS, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            start = time.monotonic()
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", SECONDS, "--trace", "0"],
                                  capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            env = json.loads(lines[-2].removeprefix("env "))
            runs.append(json.loads(lines[-1]))
            runs[-1]["lines"] = lines[:-2]  # the table, with the uncorrected medians
            print(f"{workload} seed {seed} ({time.monotonic() - start:.0f} s): " + json.dumps(runs[-1]), flush=True)
        metrics = {}
        for name, entry in runs[0]["metrics"].items():
            metrics[name] = {"unit": entry["unit"], **summarise([r["metrics"][name]["value"] for r in runs])}
        doc["workloads"][workload] = {"attempted": sum(r["attempted"] for r in runs),
                                      "failed": sum(r["failed"] for r in runs),
                                      "all_correct": all(r["correct"] for r in runs), "metrics": metrics,
                                      "run_lines": [r["lines"] for r in runs]}
        doc["env"] = env
    for workload, entry in doc["workloads"].items():
        print(f"{workload}: {entry['failed']} of {entry['attempted']} operations failed")
        for name, m in entry["metrics"].items():
            print(f"  {name:32s} median {m['median']:10.5g} {m['unit']:6s} "
                  f"q1 {m['q1']:10.5g} q3 {m['q3']:10.5g} spread {m['spread']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

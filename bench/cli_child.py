"""Stand-in for `python -m canclust.cli ...` used by the simtest-cli workload.

    python3 bench/cli_child.py trace <out.json> <op id> simtest --a A --b B --linkage L
    python3 bench/cli_child.py speed <out.json> <op id> simtest --a A --b B --linkage L

trace: times the import of canclust.cli in this fresh interpreter, wraps the
layer functions the CLI calls, runs canclust.cli.main() with the remaining
arguments and writes the spans and the import time to <out.json>.
speed: runs the import and canclust.cli.main() under speed.Probe and writes
the probe's summary to <out.json>, so the caller can correct the query's
wall time for the host's speed.
The CLI's stdout and exit code pass through unchanged. canclust must be on
PYTHONPATH.
"""

import json
import sys
import time

import spans
import speed


def traced(op_id, argv):
    start = time.perf_counter()
    import canclust.cli
    import_s = time.perf_counter() - start
    tracer = spans.Tracer(op=op_id)
    restore, missing = spans.install(tracer)
    try:
        code = canclust.cli.main(argv)
    finally:
        spans.uninstall(restore)
    return code, {"import_s": import_s, "missing": missing, "spans": tracer.spans}


def probed(argv):
    with speed.Probe() as probe:
        import canclust.cli
        code = canclust.cli.main(argv)
    return code, {"speed": probe.summary()}


def main():
    mode, out_path, op_id, argv = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
    code, doc = traced(op_id, argv) if mode == "trace" else probed(argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

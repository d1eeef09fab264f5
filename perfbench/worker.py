"""Runs one workload's ops in a fresh interpreter and reports what it saw.

Usage: python3 perfbench/worker.py JOB_JSON RESULT_JSON

The parent (run.py) writes the job: the cases (graph text and arguments,
never the reference answers), the case order, the run length and the mode.
The worker times its own first `import graphmoves` and measures the
machine's speed just after it.  In "run" mode it then runs the job's number
of whole rounds over the cases (runner.Runner), one op at a time: a closed
loop with a single caller.  With tracing on, untraced and traced rounds
alternate.
"""

import json
import sys
import time


def main() -> int:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    t0 = time.perf_counter()
    import graphmoves as gm

    import_s = time.perf_counter() - t0
    # Imported only now, so that nothing they load is counted as import time.
    from runner import IMPORT_CALIBRATION_S, Calibration, Runner

    cal = Calibration()
    cal.sample(IMPORT_CALIBRATION_S / Calibration.SHARE)
    result = {"import_s": import_s, "import_slowdown": cal.slowdown(), "graphmoves_file": gm.__file__}
    if job["mode"] == "run":
        result.update(Runner(gm, job).run())
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

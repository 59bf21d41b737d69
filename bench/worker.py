"""One workload in one fresh interpreter: set up, then optionally run units.

    python3 bench/worker.py --workload NAME --seed N --mode setup|units|spans|counts
        [--seconds S] [--hard-cap S] [--spans PATH]

Prints one JSON object.  `setup_s` runs from the top of this script,
before frobfix is imported, to the end of the workload's set-up.
`setup_ref_s` holds the calibration reference times (see calib.py)
measured just before and just after that span.  Modes `spans` and
`counts` install the tracing wrappers of that kind before set-up; `spans`
writes the spans to PATH, `counts` adds the unit-phase counts to the JSON
object.
"""

import time

import calib

SETUP_REFS = 10
PRE_REFS = calib.time_reference(min_runs=SETUP_REFS)
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import units  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(units.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "units", "spans", "counts"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--hard-cap", type=float, default=60.0)
    ap.add_argument("--spans")
    args = ap.parse_args()

    tracer = None
    if args.mode in ("spans", "counts"):
        import tracing

        tracer = tracing.Tracer(args.mode)
        tracer.install()
    try:
        frozen = units.load_frozen()[args.workload]
        workload = units.WORKLOADS[args.workload](args.seed, frozen)
        out = {"setup_s": time.perf_counter() - T0}
        out["setup_ref_s"] = PRE_REFS + calib.time_reference(min_runs=SETUP_REFS)
        if args.mode != "setup":
            out.update(units.run_units(workload, args.seconds, args.hard_cap, tracer))
    finally:
        if tracer:
            tracer.uninstall()
    if args.mode == "spans":
        tracer.dump(args.spans, out["unit_s"])
    elif args.mode == "counts":
        out["unit_counts"] = tracer.unit_counts()
    print(json.dumps(out))


if __name__ == "__main__":
    main()

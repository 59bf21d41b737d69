"""Unit-stream benchmark for frobfix.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  --seconds defaults to BENCHMARK.json's
run_seconds.  Each workload (see units.py) runs as a closed loop with one
caller, one thread and no pool, in fresh interpreters started by this
script, so frobfix's module caches start empty every time.

Every time it reports is calibrated for the machine's speed (see
calib.py): a reference loop runs next to each timed span, and the time is
scaled to a machine on which that loop takes calib.REF_NOMINAL_S.  On a
shared machine whose speed drifts in phases of seconds to minutes this
cancels the drift; the raw figures are printed beside the calibrated ones.

With --trace 0 it prints, per workload, the median unit time
(unit_ms.p50), the tail (unit_ms.tail: the highest of p90, p80, p75, p50
with at least ten units beyond it), set-up time (setup_s: the median over
3 to 24 fresh interpreters), peak RSS of the unit process and fail_frac;
all but fail_frac go into the JSON line.  With --trace 1 it runs the
workload untraced, with span tracing and with call counting, and prints
the per-layer metrics together with trace.overhead_frac, the span-traced
unit_ms.p50 over the untraced one, minus one.  The last line of the
output is one JSON object.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import calib

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("torsion_gf4096", "oracle_gf256", "lpoly_gf64")
DEFAULT_SEED = 1
# Set-up is sampled at least SETUP_MIN times, and up to SETUP_MAX times
# while the samples add up to less than SETUP_BUDGET_S, half of them before
# the units and half after, so that the samples span the machine's phases.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 24, 6.0
TAIL_LADDER = (90, 80, 75, 50)
MIN_BEYOND = 10
# A run must end within 180 s: the unit loops stop at these caps, and
# workers still running at RUN_BUDGET_S are killed.
UNITS_CAP_S = 75.0
TRACE_CAPS_S = {"units": 30.0, "spans": 50.0, "counts": 40.0}
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """A worker failed or the checkout cannot run the benchmark."""


def tail_percentile(n):
    """The highest percentile in TAIL_LADDER with at least MIN_BEYOND of n
    units beyond it, or None when n is too small for any."""
    for p in TAIL_LADDER:
        if n * (100 - p) // 100 >= MIN_BEYOND:
            return p
    return None


def percentile(values, p):
    """The p-th percentile, interpolating linearly between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50)


def run_worker(deadline, workload, seed, mode, seconds=0.0, hard_cap=0.0, spans=None):
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", str(seconds), "--hard-cap", str(hard_cap)]
    if spans:
        cmd += ["--spans", str(spans)]
    # Bytecode is cached under OUT_DIR whatever the environment says, so
    # that set-up times measure frobfix's set-up and not the compiler.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=str(OUT_DIR / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} worker timed out") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def calibrated_setup(res):
    return res["setup_s"] * calib.scale(res["setup_ref_s"])


def calibrated_units(res):
    return calib.calibrate_units(res["unit_s"], res["ref_s"])


def unit_refs(res):
    """Every reference time measured among the units of one worker."""
    return [r for gap in res["ref_s"] for r in gap]


def measure(deadline, workload, seed, seconds):
    """End-to-end metrics: one interpreter that sets up and runs the
    units, with set-up-only interpreters before and after it."""
    setups = []

    def sample_setup(count, budget_s):
        while len(setups) < count and sum(s for s, _ in setups) < budget_s:
            res = run_worker(deadline, workload, seed, "setup")
            setups.append((res["setup_s"], calibrated_setup(res)))

    sample_setup(SETUP_MAX // 2, SETUP_BUDGET_S / 2)
    res = run_worker(deadline, workload, seed, "units", seconds, UNITS_CAP_S)
    setups.append((res["setup_s"], calibrated_setup(res)))
    sample_setup(SETUP_MAX, SETUP_BUDGET_S)
    sample_setup(SETUP_MIN, float("inf"))
    raw, times = res["unit_s"], calibrated_units(res)
    n = len(times)
    tail = tail_percentile(n)
    if tail is None:
        raise BenchError(f"{workload}: only {n} units, too few for a tail percentile")
    metrics = {
        "unit_ms.p50": (median(times) * 1e3, "ms"),
        "unit_ms.tail": (percentile(times, tail) * 1e3, "ms"),
        "setup_s": (median([c for _, c in setups]), "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
    }
    printed = {
        **metrics,
        "fail_frac": (res["failed"] / res["attempted"], "frac"),
    }
    uncalibrated = {
        "unit_ms.p50": median(raw) * 1e3,
        "unit_ms.tail": percentile(raw, tail) * 1e3,
        "setup_s": median([s for s, _ in setups]),
    }
    speed = calib.scale(unit_refs(res))
    lines = [
        f"{workload} seed {seed}: {n} units in {sum(raw):.1f} s; unit_ms.tail is p{tail} "
        f"({n * (100 - tail) // 100} units beyond it); setup_s is the median of "
        f"{len(setups)} interpreters; the machine ran at {speed:.3f}x the reference speed",
    ]
    lines += [
        f"  {name:<14} {value:12.4f} {unit}"
        + (f"   (uncalibrated {uncalibrated[name]:.4f})" if name in uncalibrated else "")
        for name, (value, unit) in printed.items()
    ]
    lines.append(f"  ({res['failed']} failed of {res['attempted']} attempted: "
                 f"{n} units and the frozen checks {res['checks']})")
    return res, metrics, lines


def trace(deadline, workload, seed, seconds):
    """Per-layer metrics from a span-traced and a call-counted interpreter,
    and the span tracing's overhead against an untraced one, all three on
    the same inputs.  Failures of any of them count."""
    import tracing

    runs = {}
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{workload}.bin"
    for mode in ("units", "spans", "counts"):
        runs[mode] = run_worker(deadline, workload, seed, mode, seconds, TRACE_CAPS_S[mode],
                                spans if mode == "spans" else None)
    counted = runs["counts"]
    counts = {k: v / len(counted["unit_s"]) for k, v in counted["unit_counts"].items()}
    tr = tracing.load(spans)
    totals = tracing.span_totals(tr)
    scale = calib.scale(unit_refs(runs["spans"]))
    metrics = tracing.layer_metrics(tr, totals, counts, scale,
                                    median(calibrated_units(runs["units"])),
                                    median(calibrated_units(runs["spans"])))
    selfs = tracing.layer_self_s(tr, totals)
    total = sum(tr.unit_s)
    lines = [f"{workload} seed {seed}: {len(tr.unit_s)} span-traced units, "
             f"{len(tr.start)} spans written to {spans.relative_to(ROOT)}; "
             f"{len(counted['unit_s'])} counted units",
             "  self-time share of traced unit time: " + ", ".join(
                 f"{layer} {s / total:.1%}" for layer, s in
                 sorted(selfs.items(), key=lambda kv: -kv[1]))]
    lines += [f"  {name:<36} {value:14.6g} {unit}" for name, (value, unit) in metrics.items()]
    both = {k: sum(r[k] for r in runs.values()) for k in ("attempted", "failed")}
    return both, metrics, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "frobfix" / "__init__.py").is_file():
        print(f"no frobfix sources under {ROOT / 'src'}: run from a checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        started = time.monotonic()
        try:
            res, metrics, lines = (trace if args.trace else measure)(
                started + RUN_BUDGET_S, name, args.seed, args.seconds)
        except BenchError as exc:
            print(exc, file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(f"  ({time.monotonic() - started:.1f} s wall)")
        print(json.dumps({
            "correct": res["failed"] == 0,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

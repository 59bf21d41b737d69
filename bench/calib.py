"""Machine-speed calibration for the unit benchmark.

The benchmark runs on shared machines whose speed drifts by up to 2x in
phases of seconds to minutes, with CPU time equal to wall time, so the
drift is the processor's speed, not scheduling.  Every timed span is
therefore bracketed by runs of `reference`, a fixed piece of pure Python
that calls nothing outside this file: a linear congruential generator on
machine-word integers storing into a small dict.  Of the loops tried
against the three workloads (this one, a slotted-object field multiply,
a list-and-dict allocator, a random walk over an 8 MB list and a small
polynomial multiply), it followed the units' slow phases most closely.
A measured time t is reported as

    t * REF_NOMINAL_S / (reference time measured around t)

that is, the time t would take on a machine where `reference` takes
exactly REF_NOMINAL_S.  A change to frobfix moves t and not the
reference, so the calibrated figure moves with it; a slow phase of the
machine moves both, and cancels.

This module imports only `time`, so the worker can run it before its own
clock starts.
"""

import time

# Within the 0.8-1.9 ms that `reference` takes on the machine of
# BASELINE.json, so that calibrated times read like raw ones there.
REF_NOMINAL_S = 0.0015
# Between two units the reference runs at least once, and until it has
# taken REF_SHARE of the time of the unit before, so that long units are
# bracketed by enough reference times of their own.
REF_SHARE = 0.03
# A unit is scaled by the median of at least MIN_REFS reference times: the
# two gaps around it, widened a gap on each side until there are enough.
MIN_REFS = 10


def reference():
    """The fixed reference work, 0.8-1.9 ms of CPython 3.11 on a shared
    2-vCPU Xeon VM, the machine of BASELINE.json.  Returns a checksum so
    that the work cannot be skipped."""
    table = {}
    x = 1
    for i in range(4000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        table[x & 1023] = i ^ x
    return x ^ len(table)


def time_reference(budget_s=0.0, min_runs=1):
    """Wall times, in seconds, of calls of `reference`: at least
    `min_runs` of them, and more until they add up to `budget_s`."""
    clock = time.perf_counter
    out = []
    total = 0.0
    while len(out) < min_runs or total < budget_s:
        t0 = clock()
        reference()
        out.append(clock() - t0)
        total += out[-1]
    return out


def _median(xs):
    s = sorted(xs)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


def scale(ref_s):
    """Calibration factor of one span bracketed by the reference times
    `ref_s`: REF_NOMINAL_S over their median."""
    return REF_NOMINAL_S / _median(ref_s)


def calibrate_units(unit_s, ref_gaps, min_refs=MIN_REFS):
    """Calibrated unit times.  ref_gaps[i] holds the reference times
    measured just before unit i, and ref_gaps[len(unit_s)] those just
    after the last unit.  Unit i is scaled by the median of the reference
    times in gaps i and i + 1, widened a gap on each side at a time until
    they hold at least `min_refs` times or cover the whole run."""
    n = len(unit_s)
    if len(ref_gaps) != n + 1 or not all(ref_gaps):
        raise ValueError("need reference times before each unit and after the last")
    out = []
    for i, t in enumerate(unit_s):
        lo, hi = i, i + 1
        refs = ref_gaps[lo] + ref_gaps[hi]
        while len(refs) < min_refs and (lo > 0 or hi < n):
            if lo > 0:
                lo -= 1
                refs += ref_gaps[lo]
            if hi < n:
                hi += 1
                refs += ref_gaps[hi]
        out.append(t * scale(refs))
    return out

"""The benchmark's workloads: streams of small, independent units.

A unit is one paper-level check, run through frobfix's public functions
and checked both by the program's own cross-checks and against outputs
frozen in frozen.json.  Set-up builds the fields, curves and embeddings
the units reach, so no unit pays a cold cost.  No unit repeats an input,
so a memo cache cannot turn repeats into free hits.  The seed reaches
frobfix only as generated inputs: a `random.Random(seed)` stream for
`random_class`, or the order of the curve parameters.
"""

import hashlib
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

from frobfix import curve as fcurve
from frobfix import gf2, jacobian

import calib

FROZEN = Path(__file__).with_name("frozen.json")

# Inputs of the oracle workload's frozen-output gate, fixed whatever --seed is.
ORACLE_GATE_SEED = 0
ORACLE_GATE_PAIRS = 16


def load_frozen():
    return json.loads(FROZEN.read_text())


def _build_tables(field):
    # any product of two non-trivial elements builds the exp/log tables
    field.gen() * field.gen()


def reference_curve():
    """The curve t = w over GF(4)."""
    f4 = gf2.default_field(2)
    return fcurve.Curve(f4, f4.gen())


class Torsion:
    """Sylow-3 samples on the reference curve over GF(2^12), where
    #J = 16842816 = 2^6 3^6 19^2.  Cantor arithmetic does the work."""

    name = "torsion_gf4096"
    min_units = 100
    sylow = 3 ** 6

    def __init__(self, seed, frozen):
        self.curve = reference_curve()
        self.field = gf2.default_field(12)
        _build_tables(self.curve.field)
        _build_tables(self.field)
        s1, s2 = fcurve.lpolynomial(self.curve)
        self.order = fcurve.jacobian_order_from_lpoly(s1, s2, self.curve.field.order, 6)
        self.curve.equation_polys(self.field)  # builds the embedding GF(4) -> GF(2^12)
        self.checks = [
            ("lpoly", [s1, s2] == frozen["lpoly"]),
            ("jacobian_order", self.order == frozen["jacobian_order"]),
        ]
        self.rng = random.Random(seed)
        self.seen = set()

    def has_input(self):
        return True

    def unit(self):
        c = jacobian.random_class(self.curve, self.field, self.rng)
        if c.key() in self.seen:
            return None
        self.seen.add(c.key())
        x = c.mul_int(self.order // self.sylow)
        return x.mul_int(self.sylow).is_identity() and c.mul_int(self.order).is_identity()

    def final_checks(self):
        return []


def _oracle_pair(a, b):
    """The class a + b by Cantor and by the interpolation oracle."""
    return a + b, jacobian.oracle_class_of(a.to_divisor() + b.to_divisor())


class Oracle:
    """Cantor sums of random pairs over GF(2^8) checked against the
    Riemann-Roch interpolation oracle; supports split in GF(2^16)."""

    name = "oracle_gf256"
    min_units = 100

    def __init__(self, seed, frozen):
        self.curve = reference_curve()
        self.field = gf2.default_field(8)
        ext = gf2.default_field(16)
        base = self.curve.field
        for f in (base, self.field, ext):
            _build_tables(f)
        for source, target in ((base, self.field), (base, ext), (self.field, ext),
                               (self.field, self.field), (ext, ext)):
            gf2.embed(source, target)
        image = gf2.embed(self.field, ext).image_of_generator.mask
        self.checks = [("embed_8_16", image == frozen["embed_8_16"])]
        self.gate_digest = frozen["gate_digest"]
        self.rng = random.Random(seed)
        self.seen = set()

    def has_input(self):
        return True

    def unit(self):
        a = jacobian.random_class(self.curve, self.field, self.rng)
        b = jacobian.random_class(self.curve, self.field, self.rng)
        key = (a.key(), b.key())
        if key in self.seen:
            return None
        self.seen.add(key)
        cantor, oracle = _oracle_pair(a, b)
        return cantor == oracle

    def gate(self):
        """(all pairs agree, digest of the oracle's Mumford keys) on the
        fixed gate pairs."""
        rng = random.Random(ORACLE_GATE_SEED)
        digest = hashlib.sha256()
        agree = True
        for _ in range(ORACLE_GATE_PAIRS):
            a = jacobian.random_class(self.curve, self.field, rng)
            b = jacobian.random_class(self.curve, self.field, rng)
            cantor, oracle = _oracle_pair(a, b)
            agree = agree and cantor == oracle
            digest.update(repr((oracle.field.degree, oracle.key())).encode())
        return agree, digest.hexdigest()

    def final_checks(self):
        agree, digest = self.gate()
        return [("gate_digest", agree and digest == self.gate_digest)]


class LPoly:
    """The L-polynomial of every curve t in GF(2^6) minus {0, 1}, from
    point counts over GF(2^6) and GF(2^12).  The field layer does the work."""

    name = "lpoly_gf64"

    def __init__(self, seed, frozen):
        self.field = gf2.default_field(6)
        ext = gf2.default_field(12)
        _build_tables(self.field)
        gf2.embed(self.field, ext)
        masks = list(range(2, self.field.order))
        random.Random(seed).shuffle(masks)
        self.queue = [fcurve.Curve(self.field, self.field.element(m)) for m in masks]
        self.min_units = len(self.queue)
        self.expected = {int(t): tuple(pair) for t, pair in frozen["lpoly"].items()}
        self.checks = []

    def has_input(self):
        return bool(self.queue)

    def unit(self):
        c = self.queue.pop()
        s1, s2 = fcurve.lpolynomial(c)
        q = self.field.order
        return (
            (s1, s2) == self.expected[c.t.mask]
            and fcurve.weil_interval_ok_curve(q + 1 - s1, q)
            and fcurve.weil_interval_ok_jacobian(fcurve.jacobian_order_from_lpoly(s1, s2, q, 1), q)
        )

    def final_checks(self):
        return []


WORKLOADS = {w.name: w for w in (Torsion, Oracle, LPoly)}


def run_units(workload, seconds, hard_cap, tracer=None):
    """Closed loop, one caller: run units until `seconds` have passed and
    at least `workload.min_units` units are done, or inputs run out, or
    `hard_cap` seconds have passed.  A unit that raises counts as failed.
    The calibration reference runs before each unit and after the last
    (see calib.py); `ref_s` holds its times, one list per gap."""
    clock = time.perf_counter
    times = []
    gaps = []
    last = 0.0
    failed = 0
    errors = 0
    if tracer:
        tracer.begin_units()
    start = clock()
    while workload.has_input():
        elapsed = clock() - start
        if elapsed >= hard_cap or (elapsed >= seconds and len(times) >= workload.min_units):
            break
        if tracer:
            tracer.unit_id = len(times)
        gap = calib.time_reference(calib.REF_SHARE * last)
        t0 = clock()
        try:
            ok = workload.unit()
        except Exception:
            ok = False
            errors += 1
            if errors <= 3:
                traceback.print_exc(file=sys.stderr)
        dt = clock() - t0
        if ok is None:  # repeated input: not a unit
            continue
        times.append(dt)
        gaps.append(gap)
        last = dt
        failed += not ok
    gaps.append(calib.time_reference(calib.REF_SHARE * last))
    if tracer:
        tracer.end_units()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        final = workload.final_checks()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        final = [("final_checks", False)]
    checks = dict(workload.checks + final)
    return {
        "unit_s": times,
        "ref_s": gaps,
        "failed_units": failed,
        "checks": checks,
        "attempted": len(times) + len(checks),
        "failed": failed + sum(not ok for ok in checks.values()),
        "peak_rss_kb": peak_rss_kb,
    }

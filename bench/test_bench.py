"""Tests of the benchmark's own code: statistics, span self times, the
frozen-output gate and the removal of tracing wrappers."""

import copy
import json
from array import array

import pytest

import calib
import run
import tracing
import units
from frobfix.gf2 import FieldElement
from frobfix.jacobian import JacobianClass
from frobfix.poly import Poly


@pytest.mark.parametrize(
    "n, expected",
    [(1000, 90), (100, 90), (99, 80), (62, 80), (50, 80), (49, 75), (40, 75), (20, 50), (19, None)],
)
def test_tail_percentile_keeps_ten_units_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_percentile_interpolates_between_ranks():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert run.median(xs) == 3.0
    assert run.percentile(xs, 90) == pytest.approx(4.6)
    assert run.percentile(xs, 0) == 1.0 and run.percentile(xs, 100) == 5.0


def test_calibration_cancels_machine_speed():
    nominal = calib.REF_NOMINAL_S
    # the machine runs at half speed from gap 3 to gap 7, so units 3..6
    # and the reference times around them take twice as long
    speed = [0.5 if 3 <= i <= 7 else 1.0 for i in range(11)]
    gaps = [[nominal / v] * 5 for v in speed]
    units_s = [0.02 / v for v in speed[:10]]
    units_s[7] = 0.02
    out = calib.calibrate_units(units_s, gaps)
    assert max(units_s) == 2 * min(units_s)
    assert [round(out[i], 12) for i in (0, 1, 3, 4, 5, 6, 8, 9)] == [0.02] * 8
    # one reference time per gap: the window widens to MIN_REFS of them,
    # so a single slow one is outvoted
    gaps = [[nominal] for _ in range(11)]
    gaps[5] = [3 * nominal]
    assert calib.calibrate_units([0.02] * 10, gaps) == [0.02] * 10
    with pytest.raises(ValueError):
        calib.calibrate_units([0.02] * 10, gaps[:10])
    assert calib.scale([nominal * 2, nominal * 2, nominal * 9]) == 0.5
    assert len(calib.time_reference(min_runs=3)) == 3


def test_self_time_subtracts_child_coverage():
    # 0: [0, 10] with children 1: [2, 5] and 2: [6, 7]; 3: [3, 4] inside 1
    start = array("d", [0.0, 2.0, 3.0, 6.0])
    end = array("d", [10.0, 5.0, 4.0, 7.0])
    parent = array("i", [-1, 0, 1, 0])
    assert list(tracing.self_times(start, end, parent)) == [6.0, 2.0, 1.0, 1.0]


def test_planted_frozen_value_counts_as_failure():
    frozen = copy.deepcopy(units.load_frozen())
    honest = units.Torsion(1, frozen["torsion_gf4096"])
    honest.min_units = 1
    res = units.run_units(honest, 0.0, 60.0)
    assert res["failed"] == 0 and res["attempted"] == 3

    frozen["torsion_gf4096"]["jacobian_order"] += 1
    planted = units.Torsion(1, frozen["torsion_gf4096"])
    planted.min_units = 1
    res = units.run_units(planted, 0.0, 60.0)
    assert res["failed"] / res["attempted"] > 0
    assert res["checks"]["jacobian_order"] is False

    for pair in frozen["lpoly_gf64"]["lpoly"].values():
        pair[1] += 1
    lp = units.LPoly(1, frozen["lpoly_gf64"])
    lp.min_units = 1
    res = units.run_units(lp, 0.0, 60.0)
    assert (res["attempted"], res["failed_units"]) == (1, 1)


def _traced(mode):
    """Two Torsion units under a tracer of `mode`; checks that the tracer
    wraps while installed and that no wrapper is left afterwards."""
    mul, init, add = FieldElement.__mul__, Poly.__init__, JacobianClass.__add__
    workload = units.Torsion(2, units.load_frozen()["torsion_gf4096"])
    workload.min_units = 2
    tracer = tracing.Tracer(mode)
    tracer.install()
    try:
        assert tracing.installed_wrappers()
        if mode == "counts":
            assert FieldElement.__mul__ is not mul and JacobianClass.__add__ is add
        else:
            assert JacobianClass.__add__ is not add and FieldElement.__mul__ is mul
        res = units.run_units(workload, 0.0, 60.0, tracer)
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    assert (FieldElement.__mul__, Poly.__init__, JacobianClass.__add__) == (mul, init, add)
    assert res["failed"] == 0
    return tracer, res


def test_traced_run_leaves_no_wrapper_installed(tmp_path):
    counter, counted = _traced("counts")
    counts = {k: v / len(counted["unit_s"]) for k, v in counter.unit_counts().items()}
    tracer, res = _traced("spans")

    path = tmp_path / "spans.bin"
    tracer.dump(path, res["unit_s"])
    trace = tracing.load(path)
    metrics = tracing.layer_metrics(trace, tracing.span_totals(trace), counts, 1.0, 1.0, 1.0)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {(m["name"], m["unit"]) for m in declared} == {(k, u) for k, (_, u) in metrics.items()}
    assert metrics["jacobian.random_class.calls"] == (1.0, "count/unit")
    assert metrics["jacobian.mul_int.calls"][0] == 3.0
    assert metrics["gf2.mul.count"][0] > 0

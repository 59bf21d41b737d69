"""Layer tracing for the unit benchmark, installed from outside frobfix.

A traced run is two interpreters.  The "spans" one wraps frobfix's layer
boundaries (each layer's public functions and operators) in span
recorders.  A span is (name, start, end, parent span, unit id, tag).
Spans stay in flat arrays in memory and are written to one file when the
run ends; `load` reads them back and `layer_metrics` turns them into the
per-layer metrics.  The "counts" one wraps only the hottest primitives
(`FieldElement.__mul__`/`__add__`, `Poly` and `JacobianClass`
construction) in count-only wrappers.  They run tens of thousands of
times per unit, so keeping them out of the spans run keeps their cost out
of the self times.

Layer names are frobfix module names.  A layer's self time is the time
its spans cover minus the time their child spans cover, so work done by
unwrapped code (field arithmetic, private helpers) is charged to the span
that called it.  `action` and `modp` are on no workload's path and are
not wrapped.
"""

import importlib
import json
import operator
import sys
import time
from array import array

LAYERS = ("gf2", "poly", "curve", "jacobian", "functions", "series", "linalg")

# unit id of spans recorded before the first unit and after the last one
SETUP_UNIT = -1
AFTER_UNIT = -2


def _embed_builds(args):
    source, target = args
    key = (source.degree, source.modulus, target.degree, target.modulus)
    return key not in sys.modules["frobfix.gf2"]._embed_cache


# (span name, module, attribute path, tag hook).  A "pre" hook sees the
# arguments before the call, a "post" hook the arguments and the result;
# the span keeps the hook's value as an integer tag.  Spans that no metric
# names still count: they charge their time to their own layer's self
# time instead of the caller's.
SPANS = (
    ("gf2.embed", "gf2", "embed", ("pre", _embed_builds)),
    ("gf2.embedding", "gf2", "FieldEmbedding.__call__", None),
    ("gf2.as_root", "gf2", "artin_schreier_root_in_field", None),
    ("gf2.as_solve", "gf2", "artin_schreier_solve", ("post", lambda args, res: res[1] == 2)),
    ("gf2.solve_linear", "gf2", "solve_gf2_linear", None),
    ("poly.add", "poly", "Poly.__add__", None),
    ("poly.mul", "poly", "Poly.__mul__", None),
    ("poly.divmod", "poly", "Poly.__divmod__", None),
    ("poly.xgcd", "poly", "Poly.xgcd", None),
    ("poly.pow", "poly", "Poly.__pow__", None),
    ("poly.scale", "poly", "Poly.scale", None),
    ("poly.monic", "poly", "Poly.monic", None),
    ("poly.evaluate", "poly", "Poly.evaluate", None),
    ("poly.map", "poly", "Poly.map", None),
    ("poly.solve_linear", "poly", "solve_linear", None),
    ("poly.solve_quadratic", "poly", "solve_quadratic",
     ("post", lambda args, res: res[1] != args[0].field)),
    ("curve.equation_polys", "curve", "Curve.equation_polys", None),
    ("curve.point", "curve", "Curve.point", None),
    ("curve.count_points", "curve", "Curve.count_points", ("post", lambda args, res: args[1].order)),
    ("curve.lpolynomial", "curve", "lpolynomial", None),
    ("curve.jacobian_order", "curve", "jacobian_order_from_lpoly", None),
    ("curve.involution", "curve", "CurvePoint.hyperelliptic_involution", None),
    ("curve.is_weierstrass", "curve", "CurvePoint.is_weierstrass", None),
    ("curve.lift", "curve", "CurvePoint.lift", None),
    ("jacobian.add", "jacobian", "JacobianClass.__add__", None),
    ("jacobian.mul_int", "jacobian", "JacobianClass.mul_int", None),
    ("jacobian.neg", "jacobian", "JacobianClass.neg", None),
    ("jacobian.lift", "jacobian", "JacobianClass.lift", None),
    ("jacobian.equals", "jacobian", "JacobianClass.equals", None),
    ("jacobian.support", "jacobian", "JacobianClass.support", None),
    ("jacobian.to_divisor", "jacobian", "JacobianClass.to_divisor", None),
    ("jacobian.random_class", "jacobian", "random_class", None),
    ("jacobian.v_solve", "jacobian", "_v_solution_space", None),
    ("jacobian.oracle_class_of", "jacobian", "oracle_class_of", None),
    ("functions.oracle", "functions", "reduce_points_oracle", None),
    ("functions.interpolate", "functions", "interpolate_vanishing", None),
    ("functions.rr_basis", "functions", "riemann_roch_basis", None),
    ("functions.local_coords", "functions", "local_coordinates", None),
    ("functions.ord_at", "functions", "PolyFunction.ord_at", None),
    ("functions.norm", "functions", "PolyFunction.norm", None),
    ("functions.verify_divisor", "functions", "verify_polyfunction_divisor", None),
    ("series.add", "series", "SeriesElement.__add__", None),
    ("series.mul", "series", "SeriesElement.__mul__", None),
    ("series.inverse", "series", "SeriesElement.inverse", None),
    ("linalg.nullspace", "linalg", "nullspace", None),
    ("linalg.rref", "linalg", "rref", None),
)

COUNTS = (
    ("gf2.mul", "gf2", "FieldElement.__mul__"),
    ("gf2.add", "gf2", "FieldElement.__add__"),
    ("poly.new", "poly", "Poly.__init__"),
    ("jacobian.class.new", "jacobian", "JacobianClass.__init__"),
)


def _resolve(module, path):
    owner = importlib.import_module("frobfix." + module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner.__dict__[attr]


def _containers():
    """Every frobfix module and every class they define: the places that
    may hold a reference to a wrapped function."""
    out = []
    for name, module in list(sys.modules.items()):
        if name != "frobfix" and not name.startswith("frobfix."):
            continue
        out.append(module)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == name:
                out.append(value)
    return out


def installed_wrappers():
    """(container, attribute) of every tracing wrapper currently installed."""
    return [
        (c, k)
        for c in _containers()
        for k, v in list(vars(c).items())
        if getattr(v, "_bench_wrapper", False)
    ]


class Tracer:
    """Spans (mode "spans") or counts (mode "counts") of one traced run,
    recorded in memory."""

    def __init__(self, mode):
        if mode not in ("spans", "counts"):
            raise ValueError(f"unknown tracer mode {mode!r}")
        self.mode = mode
        self.names = [s[0] for s in SPANS]
        self.count_names = [c[0] for c in COUNTS]
        self.start = array("d")
        self.end = array("d")
        self.name = array("H")
        self.parent = array("i")
        self.unit = array("i")
        self.tag = array("i")
        self.counts = [0] * len(COUNTS)
        self.unit_id = SETUP_UNIT
        self._units_from = None
        self._units_to = None
        self._stack = []
        self._patched = []

    # -- wrappers ---------------------------------------------------------------
    def _span_wrapper(self, fn, name_id, hook):
        start, end, name, parent, unit, tag = (
            self.start, self.end, self.name, self.parent, self.unit, self.tag
        )
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        kind, hook_fn = hook if hook else (None, None)

        def wrapper(*args, **kwargs):
            i = len(start)
            name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            unit.append(tracer.unit_id)
            tag.append(hook_fn(args) if kind == "pre" else 0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if kind == "post":
                    tag[i] = int(hook_fn(args, result))
                return result
            finally:
                end[i] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, fn, slot):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[slot] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, original, wrapper):
        wrapper._bench_wrapper = True
        wrapper.__wrapped__ = original
        for container in _containers():
            for key, value in list(vars(container).items()):
                if value is original:
                    setattr(container, key, wrapper)
                    self._patched.append((container, key, original))

    def install(self):
        """Wrap every boundary in SPANS, or in COUNTS, in every frobfix
        module and class that refers to it (aliases such as
        `__sub__ = __add__` and names imported into other modules
        included)."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            if self.mode == "spans":
                for i, (_name, module, path, hook) in enumerate(SPANS):
                    original = _resolve(module, path)
                    self._patch(original, self._span_wrapper(original, i, hook))
            else:
                for i, (_name, module, path) in enumerate(COUNTS):
                    original = _resolve(module, path)
                    self._patch(original, self._count_wrapper(original, i))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patched:
            container, key, original = self._patched.pop()
            setattr(container, key, original)

    # -- phases -------------------------------------------------------------------
    def begin_units(self):
        self._units_from = list(self.counts)

    def end_units(self):
        self._units_to = list(self.counts)
        self.unit_id = AFTER_UNIT

    # -- output --------------------------------------------------------------------
    def unit_counts(self):
        """Per name in COUNTS: calls during the units."""
        return {
            n: b - a for n, a, b in zip(self.count_names, self._units_from, self._units_to)
        }

    def dump(self, path, unit_s):
        """Write the spans and the unit wall times."""
        header = {"names": self.names, "spans": len(self.start), "unit_s": unit_s}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.start, self.end, self.name, self.parent, self.unit, self.tag):
                arr.tofile(f)


class Trace:
    """Spans read back from a file written by `Tracer.dump`."""

    def __init__(self, header, arrays):
        self.names = header["names"]
        self.unit_s = header["unit_s"]
        self.start, self.end, self.name, self.parent, self.unit, self.tag = arrays


def load(path):
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        arrays = []
        for code in ("d", "d", "H", "i", "i", "i"):
            arr = array(code)
            arr.fromfile(f, header["spans"])
            arrays.append(arr)
    return Trace(header, arrays)


def self_times(start, end, parent):
    """Duration of each span minus the time its child spans cover."""
    own = array("d", map(operator.sub, end, start))
    out = array("d", own)
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= own[i]
    return out


def span_totals(trace):
    """Per span name: calls, inclusive seconds, self seconds and tag sum,
    over the units ("units") and over the whole run ("all")."""
    selfs = self_times(trace.start, trace.end, trace.parent)
    totals = {
        phase: {n: [0, 0.0, 0.0, 0] for n in trace.names} for phase in ("units", "all")
    }
    for i, nid in enumerate(trace.name):
        name = trace.names[nid]
        dur = trace.end[i] - trace.start[i]
        phases = ("units", "all") if trace.unit[i] >= 0 else ("all",)
        for phase in phases:
            t = totals[phase][name]
            t[0] += 1
            t[1] += dur
            t[2] += selfs[i]
            t[3] += trace.tag[i]
    return totals


def layer_self_s(trace, totals):
    """Self seconds per layer over the units, plus "other": unit time that
    no span covers (the benchmark's own code and unwrapped frobfix code
    called from it).  `totals` is the trace's span_totals."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, t in totals["units"].items():
        out[name.split(".")[0]] += t[2]
    out["other"] = sum(trace.unit_s) - sum(out.values())
    return out


def layer_metrics(trace, totals, counts, scale, untraced_s, traced_s):
    """The per-layer metrics of BENCHMARK.json, as {name: (value, unit)}.

    Counts and times are per unit unless the unit says otherwise;
    embedding builds are counted over the whole run, set-up included.
    Times are multiplied by `scale`, the run's machine-speed calibration
    factor (see calib.py).  `counts` holds the COUNTS names per unit, from
    a counts run.  trace.overhead_frac compares one statistic of the unit
    times, traced_s over untraced_s.  `totals` is the trace's span_totals.
    """
    units = totals["units"]
    n = max(len(trace.unit_s), 1)

    def calls(name):
        return (units[name][0] / n, "count/unit")

    def incl_s(name):
        return (units[name][1] / n, "s/unit")

    def frac(name):
        c, _, _, tagged = units[name]
        return (tagged / c if c else 0.0, "frac")

    def count(name):
        return (counts[name], "count/unit")

    embed_id = trace.names.index("gf2.embed")
    build_s = 0.0
    for i, nid in enumerate(trace.name):
        p = trace.parent[i]
        if nid == embed_id and trace.tag[i] and (p < 0 or trace.name[p] != embed_id):
            build_s += trace.end[i] - trace.start[i]
    embed_calls, _, _, embed_built_in_units = units["gf2.embed"]

    rc_id = trace.names.index("jacobian.random_class")
    vs_id = trace.names.index("jacobian.v_solve")
    tries = sum(
        1
        for i, nid in enumerate(trace.name)
        if nid == vs_id and trace.unit[i] >= 0
        and trace.parent[i] >= 0 and trace.name[trace.parent[i]] == rc_id
    )
    drawn = units["jacobian.random_class"][0]

    cp_calls, cp_s, _, cp_xs = units["curve.count_points"]
    adds, add_s, _, _ = units["jacobian.add"]
    selfs = layer_self_s(trace, totals)

    m = {
        "gf2.embed.calls": calls("gf2.embed"),
        "gf2.embed.built": (totals["all"]["gf2.embed"][3], "count"),
        "gf2.embed.hit_frac": (1.0 - embed_built_in_units / embed_calls if embed_calls else 1.0, "frac"),
        "gf2.embed.build_s": (build_s, "s"),
        "gf2.as_root.calls": calls("gf2.as_root"),
        "gf2.as_root.s": incl_s("gf2.as_root"),
        "gf2.as_solve.ext_frac": frac("gf2.as_solve"),
        "curve.count_points.us_per_x": (cp_s / cp_xs * 1e6 if cp_xs else 0.0, "us"),
        "gf2.mul.count": count("gf2.mul"),
        "gf2.add.count": count("gf2.add"),
        "poly.new.count": count("poly.new"),
        "poly.mul.calls": calls("poly.mul"),
        "poly.divmod.calls": calls("poly.divmod"),
        "poly.xgcd.calls": calls("poly.xgcd"),
        "jacobian.add.calls": calls("jacobian.add"),
        "jacobian.add.us": (add_s / adds * 1e6 if adds else 0.0, "us"),
        "jacobian.mul_int.calls": calls("jacobian.mul_int"),
        "jacobian.class.new": count("jacobian.class.new"),
        "curve.equation_polys.calls": calls("curve.equation_polys"),
        "jacobian.random_class.calls": calls("jacobian.random_class"),
        "jacobian.random_class.accept_frac": (drawn / tries if tries else 0.0, "frac"),
        "functions.oracle.calls": calls("functions.oracle"),
        "functions.oracle.s": incl_s("functions.oracle"),
        "functions.interpolate.calls": calls("functions.interpolate"),
        "functions.local_coords.calls": calls("functions.local_coords"),
        "functions.ord_at.calls": calls("functions.ord_at"),
        "series.mul.calls": calls("series.mul"),
        "series.inverse.calls": calls("series.inverse"),
        "linalg.nullspace.calls": calls("linalg.nullspace"),
        "poly.solve_quadratic.calls": calls("poly.solve_quadratic"),
        "poly.solve_quadratic.ext_frac": frac("poly.solve_quadratic"),
        "curve.lpolynomial.s": incl_s("curve.lpolynomial"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "frac"),
    }
    for layer in LAYERS:
        m[layer + ".self_s"] = (selfs[layer] / n, "s/unit")
    return {
        k: (v * scale if u in ("s", "s/unit", "us") else v, u) for k, (v, u) in m.items()
    }

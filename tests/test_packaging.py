"""The package as declared in pyproject.toml: scripts, package data,
modules; and no module imports a name it never reads."""

import ast
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import frobfix

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "frobfix"


def _project():
    # tomllib is 3.11+: on 3.10 only the pyproject tests skip, not the AST guards
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        return tomllib.load(f)


def test_script_targets_import():
    scripts = _project()["project"].get("scripts", {})
    for name, target in scripts.items():
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr)), f"script {name!r} -> {target!r}"


def test_package_data_globs_match_files():
    globs = _project()["tool"]["setuptools"]["package-data"]["frobfix"]
    for pattern in globs:
        assert list(PACKAGE_DIR.glob(pattern)), f"package-data glob {pattern!r} matches no file"


def test_every_module_imports():
    names = [m.name for m in pkgutil.walk_packages(frobfix.__path__, "frobfix.")]
    assert names
    for name in names:
        importlib.import_module(name)


def _unused_imports(path):
    """Names a module binds by import but never reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_unused_imports():
    # __init__.py modules import names to re-export them
    paths = [
        p
        for p in sorted(PACKAGE_DIR.rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
        if p.name != "__init__.py"
    ]
    assert paths
    unused = [
        f"{p.relative_to(ROOT)}:{line}: {name}" for p in paths for line, name in _unused_imports(p)
    ]
    assert not unused, "imported but never read:\n" + "\n".join(unused)


def test_no_assert_in_package():
    # python -O strips assert statements; argument errors are typed exceptions
    found = [
        f"{p.relative_to(ROOT)}:{node.lineno}"
        for p in sorted(PACKAGE_DIR.rglob("*.py"))
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, "assert statements in the package:\n" + "\n".join(found)


def test_field_checks_compare_by_identity():
    # BinaryField(d) is one object per degree, so a field check is one
    # `is not`: a value comparison after it could never run
    pattern = re.compile(r"\bis not ([\w.]+) and [\w.]+ != \1\b")
    found = [
        f"{p.relative_to(ROOT)}:{i}"
        for p in sorted(PACKAGE_DIR.rglob("*.py"))
        for i, line in enumerate(p.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert not found, "field checks with a value comparison:\n" + "\n".join(found)


def _callers(path, names):
    """Qualified names of the functions in `path` that call any of `names`."""
    callers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in names:
                    callers.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return callers


def test_raw_arithmetic_only_bootstraps_the_tables():
    # every power, root and trace reads the exp/log tables; the carry-less
    # products serve only the primitive-element search that builds them
    allowed = {"gf2.py": {"BinaryField._pow_raw", "BinaryField._ensure_tables"}}
    found = {
        p.name: _callers(p, {"_mul_raw", "_pow_raw"}) for p in sorted(PACKAGE_DIR.rglob("*.py"))
    }
    extra = [f"{name}: {caller}" for name, callers in found.items()
             for caller in sorted(callers - allowed.get(name, set()))]
    assert not extra, "raw field arithmetic outside the table bootstrap:\n" + "\n".join(extra)
    assert found["gf2.py"] == allowed["gf2.py"]


def test_only_random_class_decides_by_the_trace_criterion():
    # the enumeration behind group_order cross-checks the zeta side, which
    # counts by the trace criterion; it must keep the full Mumford solve
    found = {p.name: _callers(p, {"_solvable_by_trace"}) for p in sorted(PACKAGE_DIR.rglob("*.py"))}
    assert {name: callers for name, callers in found.items() if callers} == {"jacobian.py": {"random_class"}}


def test_only_the_memo_builds_the_curve_equation():
    # every reader takes (h, f) from Curve.equation_masks.  _v_solution_space
    # keeps equation_polys because bench/test_bench.py asserts gf2.mul.count > 0
    # on torsion units, and the boxed t^2 there is the only FieldElement
    # product on that path
    found = {p.name: _callers(p, {"equation_polys"}) for p in sorted(PACKAGE_DIR.rglob("*.py"))}
    assert {name: callers for name, callers in found.items() if callers} == {
        "curve.py": {"Curve.equation_masks"},
        "jacobian.py": {"_v_solution_space"},
    }


def test_only_the_root_walk_walks_h_and_f():
    # count_points reads the g table through one trace-dual mask; the walk
    # of (h, f) over every x serves the enumerations alone
    found = {p.name: _callers(p, {"_affine_point_masks"}) for p in sorted(PACKAGE_DIR.rglob("*.py"))}
    assert {name: callers for name, callers in found.items() if callers} == {
        "curve.py": {"Curve.points_over"},
        "jacobian.py": {"count_classes", "enumerate_classes"},
    }
    walks = {"_affine_point_masks", "points_over", "points_at", "evaluate_masks",
             "quadratic_root_masks"}
    assert "Curve.count_points" not in _callers(PACKAGE_DIR / "curve.py", walks)


def _defined(path):
    """The qualified names of the defs and classes in `path`, nested ones
    joined by dots, as `_callers` and tools/mutate.py name them."""
    defined = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                defined.add(".".join(scope + (child.name,)))
                visit(child, scope + (child.name,))

    visit(ast.parse(path.read_text()), ())
    return defined


def _guarded_callers(path, guarded, names):
    """The functions in `path` that call any of `names` and are, or are
    nested in, a def of `guarded`; every name in `guarded` must be defined."""
    defined = _defined(path)
    assert guarded <= defined, sorted(guarded - defined)
    return sorted(c for c in _callers(path, names)
                  if any(c == g or c.startswith(g + ".") for g in guarded))


def test_group_law_builds_no_poly():
    # the group law runs on coefficient masks with the memoised (h, f), and
    # nothing in jacobian.py takes a Poly gcd or exact division
    guarded = {
        "JacobianClass.__add__", "JacobianClass.neg", "JacobianClass._validate",
        "_closed_form_sum", "_slope_mod_quadratic",
        "_monic_pair", "_mumford",
    }
    path = PACKAGE_DIR / "jacobian.py"
    found = _guarded_callers(path, guarded, {"equation_polys", "Poly", "from_masks"})
    assert not found, "the group law builds Polys or equation polynomials in:\n" + "\n".join(found)
    assert not _callers(path, {"xgcd", "divexact"})


def test_the_mumford_solve_builds_no_poly():
    # every class enumerated, drawn or lifted from an automorphism comes from
    # solve_additive or _solve_by_roots on coefficient masks, and their
    # callers pass masks too
    guarded = {
        "jacobian.py": {"solve_additive", "_solve_by_roots", "affine_span", "_solvable_quadratics",
                        "_degree_two_classes", "random_class", "two_torsion"},
        "action.py": {"lift_mobius"},
    }
    for name, defs in guarded.items():
        found = _guarded_callers(PACKAGE_DIR / name, defs, {"Poly", "from_masks"})
        assert not found, f"the Mumford solve builds Polys in {name}:\n" + "\n".join(found)


def test_the_oracle_builds_no_poly():
    # the Riemann-Roch oracle's expansions, interpolation rows, order reads,
    # norm, order bookkeeping, residual roots and Mumford pairs, and the
    # supports it starts from, run on coefficient masks: no Poly is built
    # and no boxed solver is called
    guarded = {
        "functions.py": {"local_coordinates", "_shifted_equation", "_Expansions",
                         "_constraint_rows", "PolyFunction.ord_at",
                         "PolyFunction._coefficient_one", "PolyFunction.norm",
                         "_orders_and_rest", "_extract_residual_points", "_mumford_from_points"},
        "jacobian.py": {"JacobianClass._support_masks", "JacobianClass.support", "oracle_class_of"},
    }
    names = {"Poly", "from_masks", "solve_linear", "solve_quadratic"}
    for name, defs in guarded.items():
        found = _guarded_callers(PACKAGE_DIR / name, defs, names)
        assert not found, f"the oracle builds Polys in {name}:\n" + "\n".join(found)


def test_only_poly_and_curve_import_the_boxed_polynomial():
    # every kernel runs on coefficient masks: Poly and its boxed solvers stay
    # for Curve.equation_polys and the benchmark's layer spans, and
    # SeriesElement for its series spans, so no other module takes them in
    boxed = {"Poly", "solve_linear", "solve_quadratic"}
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        names = {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names}
        names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        if path.name not in ("poly.py", "curve.py"):
            found += [f"{path.name} imports {name}" for name in sorted(names & boxed)]
        names |= {n.id for n in nodes if isinstance(n, ast.Name)}
        if path.name != "series.py" and "SeriesElement" in names:
            found.append(f"{path.name} names SeriesElement")
    assert not found, "boxed types outside their modules:\n" + "\n".join(found)


def test_the_oracle_takes_mask_pairs():
    # a FormalDivisor converts its CurvePoints once, where it is built, so
    # every def in functions.py takes points as (x, y) mask pairs over one
    # field, with h = x^2 + x fixed: the partner is `_partner` and a
    # Weierstrass point has x = 0 or 1, so none asks a CurvePoint for
    # either, nor lifts or builds one
    names = {"is_infinity", "lift", "hyperelliptic_involution", "is_weierstrass", "points_at",
             "point"}
    found = sorted(_callers(PACKAGE_DIR / "functions.py", names))
    assert not found, "functions.py reads CurvePoints in:\n" + "\n".join(found)


def test_the_mutation_sweep_names_existing_defs():
    # tools/mutate.py mutates only the defs its SCOPE names, so a def that
    # is renamed or deleted would drop out of the sweep unseen
    spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
    mutate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutate)
    missing = [f"{module}.{name}" for module, defs in sorted(mutate.SCOPE.items())
               for name in sorted(defs - _defined(ROOT / mutate.PACKAGE / f"{module}.py"))]
    assert not missing, "tools/mutate.py SCOPE names no such def:\n" + "\n".join(missing)


CROSS_CHECK_ERRORS = {"InconsistencyError", "VerificationError"}


def _site_pattern(node):
    """The message of `raise InconsistencyError(<message>)` (or of a
    VerificationError) as a regex: an f-string's replacement fields match
    any text."""
    if isinstance(node, ast.Constant):
        return re.escape(node.value)
    assert isinstance(node, ast.JoinedStr), ast.dump(node)
    return "".join(
        re.escape(part.value) if isinstance(part, ast.Constant) else ".+" for part in node.values
    )


def _planted_messages(tree):
    """The messages a test module shows to fire: the first string of each
    case in its PLANTED_FAULTS table, and each `str(...) == "<message>"`."""
    messages = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and [
            getattr(t, "id", None) for t in node.targets
        ] == ["PLANTED_FAULTS"]:
            for case in node.value.elts:
                messages.append(
                    next(a.value for a in case.args if isinstance(a, ast.Constant))
                )
        elif (
            isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Call)
            and getattr(node.left.func, "id", None) == "str"
            and isinstance(node.ops[0], ast.Eq)
            and isinstance(node.comparators[0], ast.Constant)
        ):
            messages.append(node.comparators[0].value)
    return messages


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE_DIR.glob("*.py")))
def test_every_cross_check_has_a_planted_fault(module):
    sites = [
        (node.lineno, _site_pattern(node.exc.args[0]))
        for node in ast.walk(ast.parse((PACKAGE_DIR / module).read_text()))
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) in CROSS_CHECK_ERRORS
    ]
    messages = [
        m
        for p in sorted((ROOT / "tests").glob("test_*.py"))
        for m in _planted_messages(ast.parse(p.read_text()))
    ]
    missing = [
        f"{module}:{line}: {pattern}"
        for line, pattern in sites
        if not any(re.fullmatch(pattern, m) for m in messages)
    ]
    assert not missing, "cross-check sites with no planted fault:\n" + "\n".join(missing)


# The paper-level checks that no export or workload reaches yet; one
# pipeline function that runs them all will take this tuple's place.
PIPELINE = (
    "ordinarity_check", "verify_group_structure", "group_order", "torsion_subgroup",
    "enumerate_classes", "act_on_class", "class_of", "oracle_class_of", "principal_witness",
    "frobenius_pullback", "fixed_points", "frobenius_twist", "relative_frobenius",
)
# Independent routes the tests compare the pipeline against: the pullback
# tests check `frobenius_pullback` by square-root points.
REFERENCES = ("CurvePoint.frobenius_preimage",)


def _scopes(tree, classes):
    """(defs, bases, top) of one module, given the names of the package's
    classes.  defs maps each def's qualified name to (the name of its class
    if it is a method, else None; the reads of its body, nested defs
    apart); bases maps each class to the names of its bases; top holds the
    reads of module-level code, class bodies included.  A read is
    ("name", X) for a name X or an attribute X of an imported frobfix
    module; ("member", C, X) for self.X or cls.X in class C, and for C.X
    with C one of `classes`; and ("attr", X) for any other attribute X,
    except that an attribute of a name imported from outside frobfix
    (math.gcd, resources.files) is no read of the package."""
    def outside(name):
        return name.partition(".")[0] != "frobfix"

    modules, foreign = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (None, "frobfix"):
            modules.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level and outside(node.module):
            foreign.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            foreign.update(
                alias.asname or alias.name.partition(".")[0]
                for alias in node.names
                if outside(alias.name)
            )
    defs, bases, top = {}, {}, set()

    def visit(node, scope, cls, owner, reads):
        # cls owns the defs directly in node; self and cls stand for owner
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = scope + (child.name,)
                defs[".".join(name)] = (cls, own := set())
                visit(child, name, None, owner, own)
                continue
            if isinstance(child, ast.ClassDef):
                bases[child.name] = [b.id for b in child.bases if isinstance(b, ast.Name)]
                visit(child, scope + (child.name,), child.name, child.name, reads)
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                reads.add(("name", child.id))
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                base = getattr(child.value, "id", None)
                if base in ("self", "cls") and owner:
                    reads.add(("member", owner, child.attr))
                elif base in classes:
                    reads.add(("member", base, child.attr))
                elif base in modules:
                    reads.add(("name", child.attr))
                elif base not in foreign:
                    reads.add(("attr", child.attr))
            visit(child, scope, cls, owner, reads)

    visit(tree, (), None, None, top)
    return defs, bases, top


def _package_scopes(sources):
    """{module name: _scopes} for {module name: source}."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    classes = {n.name for t in trees.values() for n in ast.walk(t) if isinstance(n, ast.ClassDef)}
    return {name: _scopes(tree, classes) for name, tree in trees.items()}


def _reached(modules, reads, roots, classes):
    """The (module, qualified name) of every def in `modules` reached from
    the root `reads`, the root defs `roots` and the root `classes`.

    Module-level code is reached.  Reached code reaches a function by
    reading its name, and a method by self.X, cls.X or C.X (the first of C
    and its bases that defines X) or, once its class is reached, by any
    other attribute read of its name.  Reached code reaches a class by
    naming it, and a reached class reaches its dunders."""
    defs = {(m, q): v for m, (ds, _, _) in modules.items() for q, v in ds.items()}
    bases = {c: b for _, bs, _ in modules.values() for c, b in bs.items()}
    methods = {}
    for (m, q), (cls, _) in defs.items():
        if cls is not None:
            methods.setdefault((cls, q.rpartition(".")[2]), set()).add((m, q))

    def resolve(cls, attr):
        todo = [cls]
        while todo:
            c = todo.pop(0)
            if (c, attr) in methods:
                return methods[c, attr]
            todo += bases.get(c, [])
        return set()

    reached, classes = set(roots), set(classes)
    reads = set(reads).union(*(top for _, _, top in modules.values()), *(defs[k][1] for k in roots))
    while True:
        names = {r[1] for r in reads if r[0] == "name"}
        attrs = {r[1] for r in reads if r[0] == "attr"}
        exact = set().union(*(resolve(*r[1:]) for r in reads if r[0] == "member"))
        classes |= names & bases.keys()

        def is_read(key, cls):
            name = key[1].rpartition(".")[2]
            if cls is None:
                return name in names
            dunder = name.startswith("__") and name.endswith("__")
            return key in exact or cls in classes and (dunder or name in attrs)

        new = {k for k, (cls, _) in defs.items() if k not in reached and is_read(k, cls)}
        if not new:
            return reached
        reached |= new
        reads |= set().union(*(defs[k][1] for k in new))


def _span_targets():
    """(module, qualified name) of each attribute path that
    bench/tracing.py's SPANS and COUNTS wrap."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    return {
        (case.elts[1].value, case.elts[2].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] in (["SPANS"], ["COUNTS"])
        for case in node.value.elts
    }


def test_every_function_is_reached():
    # the roots are the exports (every method of an exported class
    # included), the span targets, the code of bench/units.py, the
    # paper-level checks and the test references; a span target's class
    # is reached
    modules = _package_scopes({p.stem: p.read_text() for p in sorted(PACKAGE_DIR.glob("*.py"))})
    defs = {(m, q): cls for m, (ds, _, _) in modules.items() for q, (cls, _) in ds.items()}
    spans = _span_targets()
    assert spans <= defs.keys(), sorted(spans - defs.keys())
    checks = {r: {k for k in defs if k[1] == r or k[1].endswith("." + r)} for r in PIPELINE + REFERENCES}
    assert all(checks.values()), [r for r, found in checks.items() if not found]
    exported = {n for n in frobfix.__all__ if isinstance(getattr(frobfix, n), type)}
    roots = spans.union(*checks.values(), {k for k, cls in defs.items() if cls in exported})
    classes = exported | {defs[k] for k in spans if defs[k]}
    units = ast.parse((ROOT / "bench" / "units.py").read_text())
    bench_defs, _, bench_top = _scopes(units, {c for _, bs, _ in modules.values() for c in bs})
    reads = bench_top.union(*(r for _, r in bench_defs.values()), {("name", n) for n in frobfix.__all__})
    reached = _reached(modules, reads, roots, classes)
    unreached = [f"{m}.py:{q}" for m, q in sorted(defs.keys() - reached)]
    assert not unreached, "defs that no export, workload or paper-level check reaches:\n" + (
        "\n".join(unreached)
    )


NEVER_BUILT = '''
class Used:
    def shared(self):
        return self._helper()

    def _helper(self):
        return 1


class NeverBuilt:
    def shared(self):
        return 2


def entry(x):
    return Used().shared() + x.shared()
'''


def test_reach_resolves_owners():
    # NeverBuilt.shared shares its name with a reached method, so matching
    # by bare name would pass it; nothing names NeverBuilt, so nothing
    # reaches it
    modules = _package_scopes({"m": NEVER_BUILT})
    reached = _reached(modules, {("name", "entry")}, set(), set())
    assert reached == {("m", "entry"), ("m", "Used.shared"), ("m", "Used._helper")}


FOREIGN_ATTRIBUTE = '''
import math


class Used:
    def __init__(self):
        self.x = 1

    def shared(self):
        return 2


def entry():
    return Used(), math.shared(3)
'''


def test_reach_ignores_attributes_of_foreign_modules():
    # math.shared names a function of math, not a method of the package:
    # Used is built, but nothing reads its shared
    modules = _package_scopes({"m": FOREIGN_ATTRIBUTE})
    reached = _reached(modules, {("name", "entry")}, set(), set())
    assert reached == {("m", "entry"), ("m", "Used.__init__")}

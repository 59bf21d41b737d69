"""The package as declared in pyproject.toml: scripts, package data,
modules; and no module imports a name it never reads."""

import ast
import importlib
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


def test_group_law_builds_no_poly():
    # the group law runs on coefficient masks with the memoised (h, f); only
    # _cantor_compose, the general fallback, may build Polys
    guarded = {
        "JacobianClass.__add__", "JacobianClass.neg", "JacobianClass._validate",
        "_degree_one_compose", "_closed_form_compose", "_quotient_mod_quadratic",
        "_reduce", "_divmod_small", "_mumford",
    }
    path = PACKAGE_DIR / "jacobian.py"
    defined = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                defined.add(".".join(scope + (child.name,)))
                visit(child, scope + (child.name,))

    visit(ast.parse(path.read_text()), ())
    assert guarded <= defined, sorted(guarded - defined)
    callers = _callers(path, {"equation_polys", "Poly", "from_masks"})
    found = sorted(c for c in callers if c in guarded or c.rpartition(".")[0] in guarded)
    assert not found, "the group law builds Polys or equation polynomials in:\n" + "\n".join(found)


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
# series.py keeps its boxed types while the benchmark's spans name them
REACH_EXEMPT = {"series.py"}


def _scopes(tree):
    """(defs, top) of one module: defs maps each def's qualified name to
    (the qualified name of its class, or None; the names its body reads as
    a Name or an Attribute, nested defs apart), and top holds the names
    that module-level code, class bodies included, reads."""
    defs, top = {}, set()

    def visit(node, scope, cls, reads):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = scope + (child.name,)
                defs[".".join(name)] = (cls, own := set())
                visit(child, name, None, own)
                continue
            if isinstance(child, ast.ClassDef):
                visit(child, scope + (child.name,), ".".join(scope + (child.name,)), reads)
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                reads.add(child.id)
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                reads.add(child.attr)
            visit(child, scope, cls, reads)

    visit(tree, (), None, top)
    return defs, top


def _bench_roots():
    """Every name bench/units.py and bench/tracing.py read, and every part
    of each attribute path that tracing.py's SPANS and COUNTS wrap."""
    roots = set()
    for name in ("units.py", "tracing.py"):
        tree = ast.parse((ROOT / "bench" / name).read_text())
        defs, top = _scopes(tree)
        roots |= top.union(*(reads for _, reads in defs.values()))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and [
                getattr(t, "id", None) for t in node.targets
            ] in (["SPANS"], ["COUNTS"]):
                roots |= {part for case in node.value.elts
                          for part in case.elts[2].value.split(".")}
    return roots


def test_every_function_is_reached():
    # a def is reached when a reached def, or module-level code, reads its
    # name; the roots are the exports (every method of an exported class
    # included), the benchmark, the paper-level checks and the test
    # references; a reached class reaches its dunders
    modules = {p.name: _scopes(ast.parse(p.read_text())) for p in sorted(PACKAGE_DIR.glob("*.py"))}
    defs = {(m, q): v for m, (ds, _) in modules.items() for q, v in ds.items()}
    for root in PIPELINE + REFERENCES:
        assert any(q == root or q.endswith("." + root) for _, q in defs), f"no def {root}"
    exported = {n for n in frobfix.__all__ if isinstance(getattr(frobfix, n), type)}
    reads = set(frobfix.__all__) | _bench_roots() | {r.rpartition(".")[2] for r in PIPELINE + REFERENCES}
    reads |= {name for _, top in modules.values() for name in top}
    reads |= {q.rpartition(".")[2] for (_, q), (cls, _) in defs.items() if cls in exported}

    def is_read(qualname, cls):
        name = qualname.rpartition(".")[2]
        dunder = name.startswith("__") and name.endswith("__")
        return name in reads or (dunder and cls is not None and cls.rpartition(".")[2] in reads)

    reached = set()
    while new := {k for k, (cls, _) in defs.items() if k not in reached and is_read(k[1], cls)}:
        reached |= new
        reads |= {name for k in new for name in defs[k][1]}
    unreached = [f"{m}:{q}" for m, q in sorted(defs) if (m, q) not in reached and m not in REACH_EXEMPT]
    assert not unreached, "defs that no export, workload or paper-level check reaches:\n" + (
        "\n".join(unreached)
    )

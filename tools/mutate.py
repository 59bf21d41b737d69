"""Mutation sweep over the group law's written-out kernels, the Frobenius
map and the scalar multiple, the Mumford solve and its trace screen, the
curve's mask equation check and the Riemann-Roch oracle's mask kernels:
its expansions, series Horner, interpolation rows, value and order reads,
involution partner, norm and order bookkeeping.

Each mutant drops one operand of one `^` (an `a ^ b` or an `x ^= e`) in one
def that SCOPE names for its module.  The tree is copied once to a
temporary directory, each mutant is written there in turn, and Tier-1 runs
on the copy with -x; the checkout is never touched.  A mutant that passes
every test survives and is printed as `module.def:line: expression ->
mutant`.  The exit status is 1 when a survivor is not in
tools/equivalent_mutants.txt, whose lines read
`module.def: expression -> mutant  # reason`.

    python tools/mutate.py
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src/frobfix")
SCOPE = {
    "jacobian": {"JacobianClass._validate", "JacobianClass.__add__", "JacobianClass.neg",
                 "_closed_form_sum", "_slope_mod_quadratic", "_monic_pair", "_solvable_by_trace",
                 "solve_additive", "affine_span", "JacobianClass._support_masks", "frobenius",
                 "JacobianClass.mul_int", "JacobianClass._mul_by_digits", "_pi_adic_digits"},
    "functions": {"local_coordinates", "_shifted_equation", "_horner", "_partner",
                  "_constraint_rows", "PolyFunction._coefficient_one", "PolyFunction.norm",
                  "PolyFunction._value_mask", "_orders_and_rest", "_mumford_from_points"},
    "poly": {"mul_poly_masks"},
    "curve": {"_on_curve"},
}
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


def mutants(source, defs):
    """(def, line, expression, mutant, mutated source) for each site in the
    defs named in `defs`, each mutated source once."""
    data = source.encode()  # ast column offsets count UTF-8 bytes
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def sites(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from sites(child, scope + (child.name,))
                continue
            if ".".join(scope) in defs and isinstance(getattr(child, "op", None), ast.BitXor):
                if isinstance(child, ast.BinOp):  # a ^ b: keep a, or keep b
                    for kept in (child.left, child.right):
                        yield scope, child, f"({ast.get_source_segment(source, kept)})"
                else:  # x ^= e: drop e, or drop x
                    yield scope, child, "pass"
                    yield scope, child, (f"{ast.get_source_segment(source, child.target)} = "
                                         f"{ast.get_source_segment(source, child.value)}")
            yield from sites(child, scope)

    seen = set()
    for scope, node, text in sites(ast.parse(source), ()):
        i = starts[node.lineno - 1] + node.col_offset
        j = starts[node.end_lineno - 1] + node.end_col_offset
        mutated = (data[:i] + text.encode() + data[j:]).decode()
        if mutated not in seen:
            seen.add(mutated)
            expr = " ".join(data[i:j].decode().split())
            yield ".".join(scope), node.lineno, expr, " ".join(text.split()), mutated


def main():
    listed = set()
    for line in (ROOT / "tools/equivalent_mutants.txt").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            entry, _, reason = line.partition("  # ")
            if not reason.strip():
                sys.exit(f"equivalent_mutants.txt: no reason given for {line!r}")
            listed.add(entry.strip())
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".bench_out"))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        if subprocess.run(TIER1, cwd=copy, env=env, capture_output=True).returncode:
            sys.exit("Tier-1 fails on the unmutated copy")
        total, unlisted = 0, 0
        for module, defs in SCOPE.items():
            target = PACKAGE / f"{module}.py"
            source = (ROOT / target).read_text()
            count = 0
            for name, lineno, expr, text, mutated in mutants(source, defs):
                count += 1
                (copy / target).write_text(mutated)
                try:  # a mutant that loops counts as killed
                    passed = not subprocess.run(TIER1, cwd=copy, env=env, capture_output=True,
                                                timeout=900).returncode
                except subprocess.TimeoutExpired:
                    passed = False
                if passed:
                    print(f"survivor {module}.{name}:{lineno}: {expr} -> {text}", flush=True)
                    unlisted += f"{module}.{name}: {expr} -> {text}" not in listed
            (copy / target).write_text(source)
            print(f"{module}: {count} mutants", flush=True)
            total += count
    print(f"{total} mutants, {unlisted} unlisted survivors")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())

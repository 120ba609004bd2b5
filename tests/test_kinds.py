"""The kind descriptions: every function that takes a kind's name refuses
one that names no such kind, each quadric's kept monomials are a basis of
the cubics modulo the quadric, a kind's facts live only in kinds.py, and
kinds.py imports no numpy."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import genus4census
from genus4census import cartier, curves
from genus4census.curves import MONOMIALS2, MONOMIALS3, QUADRIC_KINDS, quadric_coeffs, reduce_cubic
from genus4census.gfarith import F2, f2_rref
from genus4census.kinds import DESCRIPTIONS, quadric

SRC = Path(genus4census.__file__).parent
ZERO_CUBIC = (0,) * len(MONOMIALS3)

# every public function that takes the name of a quadric kind
TAKES_A_QUADRIC_KIND = {
    "quadric_coeffs": lambda kind: curves.quadric_coeffs(kind),
    "reduce_cubic": lambda kind: curves.reduce_cubic(kind, F2, ZERO_CUBIC),
    "quadric_curve": lambda kind: curves.quadric_curve(kind, F2, ZERO_CUBIC),
    "quadric_curve_from_mask": lambda kind: curves.quadric_curve_from_mask(kind, 0),
    "QuadricCubicCurve": lambda kind: curves.QuadricCubicCurve(kind, F2, ZERO_CUBIC),
    "eval_quadric": lambda kind: curves.eval_quadric(kind, F2, (1, 1, 0, 1)),
    "quadric_gradient": lambda kind: curves.quadric_gradient(kind, F2, (1, 1, 0, 1)),
    "quadric_points": lambda kind: curves.quadric_points(kind, F2),
    "quadric_stabilizer_f2": lambda kind: curves.quadric_stabilizer_f2(kind),
    "quadric_cartier_word": lambda kind: cartier.quadric_cartier_word(kind, 0),
    "kinds.quadric": quadric,
}


@pytest.mark.parametrize("name", ["hyp", "bogus"])
@pytest.mark.parametrize("function", list(TAKES_A_QUADRIC_KIND))
def test_a_name_that_is_no_quadric_kind_is_refused(function, name):
    with pytest.raises(ValueError, match=f"unknown quadric kind {re.escape(repr(name))}"):
        TAKES_A_QUADRIC_KIND[function](name)


@pytest.mark.parametrize("kind", QUADRIC_KINDS)
def test_kept_monomials_and_the_quadric_multiples_span_the_cubics(kind):
    # the 16 kept monomials and Q*X, Q*Y, Q*Z, Q*T span the 20 cubic
    # monomials over F_2, so a reduced cubic names each class modulo the
    # quadric once; and reduce_cubic, one pass over the reduction (whose
    # targets are kept monomials), sends each Q*L to zero
    desc = DESCRIPTIONS[kind]
    assert len(desc.kept) == 16 and set(desc.reduction.values()) <= set(desc.kept)
    index = {e: i for i, e in enumerate(MONOMIALS3)}
    rows = [1 << idx for idx in desc.kept]
    for v in range(4):
        q_l = [0] * len(MONOMIALS3)
        for c, e in zip(quadric_coeffs(kind), MONOMIALS2):
            if c:
                q_l[index[tuple(a + (w == v) for w, a in enumerate(e))]] ^= 1
        rows.append(sum(c << i for i, c in enumerate(q_l)))
        assert reduce_cubic(kind, F2, q_l) == ZERO_CUBIC, v
    assert len(rows) == 20 and len(f2_rref(rows)) == 20


def _kind_literals(node) -> list[str]:
    """The kind names that node spells as string literals, itself or as the
    items of a tuple, list or set literal."""
    items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return [n.value for n in items if isinstance(n, ast.Constant) and n.value in DESCRIPTIONS]


def _kind_facts(path: Path) -> list[tuple[str, str, str, str]]:
    """(file, enclosing function or class, what, kind name) for each
    comparison with a kind-name literal and each dict literal keyed by one."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = node.name
        if isinstance(node, ast.Compare):
            found.extend((path.name, where, "comparison", name)
                         for operand in (node.left, *node.comparators) for name in _kind_literals(operand))
        if isinstance(node, ast.Dict):
            found.extend((path.name, where, "dict key", name)
                         for key in node.keys if key is not None for name in _kind_literals(key))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(), str(path)), "<module>")
    return found


def test_kind_facts_live_only_in_kinds():
    # outside kinds.py no code branches on a kind's name or keeps a table
    # keyed by kind names; the paper's claims about ns and about hyp
    # models are the two predicates that must name their kind
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "kinds.py")
    assert {"census.py", "curves.py", "cartier.py", "cli.py"} <= {p.name for p in paths}
    found = [fact for path in paths for fact in _kind_facts(path)]
    assert found == [("census.py", "verify_propositions", "comparison", "ns"),
                     ("census.py", "verify_propositions", "comparison", "hyp")]


def test_kinds_imports_no_numpy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    code = "import genus4census.kinds, sys; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"

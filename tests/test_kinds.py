"""The kind descriptions: every function that takes a kind's name refuses
one that names no such kind, each quadric's kept monomials are a basis of
the cubics modulo the quadric, a kind's facts live only in kinds.py, and
kinds.py imports no numpy.  The curve-id codec (Kind.spell, parse_id) round
trips every id of the model space, refuses everything else alike wherever
an id is read, builds its index on first use and is the only place in the
package that spells an id."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import genus4census
from genus4census import cartier, census, curves
from genus4census.curves import MONOMIALS2, MONOMIALS3, QUADRIC_KINDS, parse_curve_id, quadric_coeffs, reduce_cubic
from genus4census.gfarith import F2, f2_rref
from genus4census.kinds import DESCRIPTIONS, parse_id, quadric

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


def _run(code: str, *args: str) -> str:
    """The stdout of code run by a fresh interpreter that imports the package from SRC."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
                          check=True).stdout


def test_kinds_imports_no_numpy():
    assert _run("import genus4census.kinds, sys; print('numpy' in sys.modules)").strip() == "False"


# every id spelling the parsers were ever asked to refuse, and what is no str
BAD_IDS = ["", "ns", "ns;c=0xfffff", "pear;c=0x1", "hyp;h=0x00;f=0x220", "hyp;h=0x1", "ns;c=zz",
           " ns;c=0x1d0c", "ns;c=0x1d0c\n", "ns;c=0x1D0C", "ns;c=0x1d_0c", "ns;c=1d0c", "ns;c=0x0001d0c",
           "cone;c=0x1", "hyp;h=0x1;f=0x220", "hyp;h=0x01;f=0x0220", "hyp;h=0x01;f=0X220",
           "ns;c=0x1d0", "ns;c=0x01d0c", "ell;c=0x1d0c", "cone;c=0x1d0c ", "hyp;h=0x00;f=0x200",
           "hyp;h=0x1f;f=0x1ff", "hyp;h=0x40;f=0x000", "hyp;h=0x20;f=0x800", "hyp;h=0x3;f=0x200",
           "hyp;f=0x200;h=0x03", 7, None, b"ns;c=0x1d0c"]


@pytest.fixture(scope="module")
def one_model_table():
    return census.CensusTable.of([census.classify_model(parse_curve_id("ns;c=0x1d0c"))])


@pytest.mark.parametrize("bad", BAD_IDS, ids=repr)
def test_both_id_readers_refuse_a_bad_id_with_value_error(bad, one_model_table):
    with pytest.raises(ValueError, match="^bad curve id "):
        parse_curve_id(bad)
    with pytest.raises(ValueError, match="^record id .* is not the curve_id of a census model$"):
        one_model_table.lookup(bad)


def test_every_id_parses_to_the_key_that_spells_it():
    # the keys of a kind ascend with its ids: a quadric kind's masks, and
    # h * 2048 + f for each hyp (h, f) of the genus-4 shape
    keys = {kind: [] for kind in DESCRIPTIONS}
    for cid in census._curve_ids(np.arange(244224)):
        kind, key = parse_id(cid)
        assert DESCRIPTIONS[kind].spell(key) == cid
        keys[kind].append(key)
    for kind in QUADRIC_KINDS:
        assert keys[kind] == list(range(1 << 16))
    hyp = DESCRIPTIONS["hyp"]
    assert keys["hyp"] == [h * 2048 + f for h in range(64) for f in range(hyp.first_tail[h], 2048)]


@pytest.mark.parametrize("name", sorted(DESCRIPTIONS))
def test_key_and_parts_round_trip_the_first_and_last_head(name):
    # the one home of the key layout, head index * len(tails) + tail index
    kind = DESCRIPTIONS[name]
    for head in (0, len(kind.heads) - 1):
        for tail in (0, len(kind.tails) - 1):
            key = kind.key(head, tail)
            assert key == head * len(kind.tails) + tail
            assert kind.parts(key) == (head, tail)
            assert kind.spell(key) == kind.heads[head] + kind.tails[tail]


def test_the_first_and_last_id_of_each_head_is_its_model_s_curve_id():
    # every head but hyp's h = 0, which has no id
    ends = [kind.heads[h] + kind.tails[t] for kind in DESCRIPTIONS.values()
            for h, first in enumerate(kind.first_tail) if first < len(kind.tails)
            for t in (first, len(kind.tails) - 1)]
    assert len(ends) == 2 * 575
    for cid in ends:
        assert parse_curve_id(cid).curve_id == cid


def test_the_id_index_is_built_at_the_first_parse(tmp_path):
    # neither an import nor verify reads an id; a parse builds its kind's index
    path = tmp_path / "mini.jsonl"
    census.write_records(path, census.run_census(kinds="hyp", id_filter=lambda cid: cid.startswith("hyp;h=0x01;f=0x2")))
    out = _run("""
import sys
from genus4census import cli, curves, kinds
built = [kinds._id_index.cache_info().currsize]
rc = cli.main(["verify", "--records", sys.argv[1]])
built.append(kinds._id_index.cache_info().currsize)
curves.parse_curve_id("ns;c=0x1d0c")
print(rc, *built, kinds._id_index.cache_info().currsize)
""", str(path))
    assert out.splitlines()[-1] == "0 0 0 1"


def _id_texts(path: Path) -> list[tuple[str, str]]:
    """(file, text) of each string constant and f-string part of path that
    holds an id's field separator: ;c=0x, ;h=0x or ;f=0x."""
    return [(path.name, node.value) for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and any(sep in node.value for sep in (";c=0x", ";h=0x", ";f=0x"))]


def test_ids_are_spelled_only_in_kinds():
    # outside kinds.py no code spells or parses an id by hand; the one
    # exception is the example in the help of cli's --curve
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "kinds.py")
    assert [text for path in paths for text in _id_texts(path)] == [("cli.py", "curve id, e.g. 'ns;c=0x1d0c'")]
    assert _id_texts(SRC / "kinds.py")

"""The package's value classes and what importing the package costs.

Every immutable record of the package is a _value.Value: equal fields give
equal objects with equal hashes, fields cannot be assigned, the repr reads
Name(field=value, ...), pickling re-runs the checks, and each check keeps
its message.  Importing the modules the CLI and the benchmark use runs no
generated code, builds no table and runs no self-check."""

import copy
import json
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from genus4census.cartier import SemilinearOperator
from genus4census.census import IsogenyClassReport, VerificationReport
from genus4census.curves import (HyperellipticCurve, ProjectiveTransform, QuadricCubicCurve, SmoothnessResult,
                                 hyperelliptic_from_masks, quadric_curve_from_mask)
from genus4census.dieudonne import Bt1Module, EoCandidateSet, EoLabel, standard_module
from genus4census.gfarith import F2, Embedding, FieldSpec, embedding, field
from genus4census.zeta import NewtonPolygon, StratumLabel, WeilPolynomial, weil_from_counts

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_NS = quadric_curve_from_mask("ns", 0x1d0c)
_HYP = hyperelliptic_from_masks(0x01, 0x280)
_BT1 = standard_module((0, 1, 1, 2))
_ID4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
_HALF = Fraction(1, 2)

# each class with the fields of one valid instance, in declaration order
SAMPLES = [
    (FieldSpec, {"k": 4, "modulus": 0x13}),
    (Embedding, {"sub": field(2), "sup": field(4), "generator_image": embedding(field(2), field(4)).generator_image}),
    (QuadricCubicCurve, {"kind": "ns", "spec": F2, "coeffs": _NS.coeffs}),
    (HyperellipticCurve, {"spec": F2, "h": _HYP.h, "f": _HYP.f}),
    (ProjectiveTransform, {"spec": F2, "rows": _ID4}),
    (SmoothnessResult, {"smooth": False, "witness": (1, (0, 0, 0, 1)), "note": "singular at (0:0:0:1)"}),
    (WeilPolynomial, {"coeffs": (16, 0, 8, 0, 3, 0, 2, 0, 1), "q": 2}),
    (NewtonPolygon, {"slopes": (_HALF,) * 8}),
    (StratumLabel, {"name": "S4", "p_rank": 0}),
    (EoLabel, {"mu": (4, 2), "smooth_impossible": False}),
    (EoCandidateSet, {"options": ((4, 2, 1), (4, 3, 1)), "smooth_impossible": True}),
    (Bt1Module, {"g": _BT1.g, "f_rows": _BT1.f_rows, "v_rows": _BT1.v_rows, "pairing": _BT1.pairing,
                 "labels": _BT1.labels}),
    (SemilinearOperator, {"spec": F2, "rows": ((0, 1, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 1, 0))}),
    (IsogenyClassReport, {"weil": (16, 0, 8, 0, 3, 0, 2, 0, 1), "q": 2, "member_ids": ("ns;c=0x03b5",),
                          "iso_rep_ids": ("ns;c=0x03b5",), "jacobian_auts": (2,), "stack_count": _HALF,
                          "abelian_side": None}),
    (VerificationReport, {"ok": True, "lines": ("PASS: a claim",), "failures": ()}),
]


@pytest.mark.parametrize("cls, fields", SAMPLES, ids=[cls.__name__ for cls, _ in SAMPLES])
def test_value_class_semantics(cls, fields):
    a = cls(**fields)
    b = cls(*fields.values())
    assert a == b and not a != b and hash(a) == hash(b)
    assert hash(a) == hash(tuple(fields.values()))  # as a frozen dataclass hashes
    assert a != tuple(fields.values()) and a != object()
    assert {a: 1}[b] == 1
    for name, value in fields.items():
        assert getattr(a, name) == value
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert repr(a) == f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
    for back in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(back) is cls and back == a and hash(back) == hash(a)


def test_other_classes_or_fields_give_unequal_values():
    assert EoLabel((4, 2)) != EoCandidateSet((4, 2))
    assert ProjectiveTransform(F2, _ID4) != SemilinearOperator(F2, _ID4)
    assert SmoothnessResult(True) != SmoothnessResult(False)
    assert FieldSpec(4, 0x13) != FieldSpec(4, 0x19)


def test_field_spec_keeps_its_cached_tables_apart_from_its_fields():
    K = FieldSpec(4, 0x13)
    assert K.mul(2, 9) == 1  # builds the tables into the instance dict
    assert "_tables" in K.__dict__ and K == field(4) and hash(K) == hash((4, 0x13))
    assert repr(K) == "FieldSpec(k=4, modulus=19)"


REFUSED = [
    (FieldSpec, (0, 0x3), "field degree 0 outside supported range 1..16"),
    (FieldSpec, (2, 0xB), "modulus degree does not match field degree"),
    (FieldSpec, (2, 0x5), "modulus 0x5 is reducible"),
    (QuadricCubicCurve, ("quartic", F2, _NS.coeffs), "unknown quadric kind 'quartic'"),
    (QuadricCubicCurve, ("ns", F2, _NS.coeffs[:-1]), "a cubic needs one coefficient per degree-3 monomial"),
    (QuadricCubicCurve, ("ns", F2, (2,) + _NS.coeffs[1:]), "0x2 is not an element of F_{2^1}"),
    (QuadricCubicCurve, ("ns", F2, (1,) * 20), "coefficients are not reduced modulo the quadric"),
    (HyperellipticCurve, (F2, (1,), (1,) * 10 + (2,)), "0x2 is not an element of F_{2^1}"),
    (HyperellipticCurve, (F2, (1, 0), (1,) * 11), "polynomials must be normalized (no trailing zeros)"),
    (HyperellipticCurve, (F2, (), (1,) * 11), "h must be nonzero: y^2 = f(x) is inseparable in char 2"),
    (HyperellipticCurve, (F2, (1,) * 7, (1,)), "degree bounds: deg h <= 5, deg f <= 10"),
    (HyperellipticCurve, (F2, (1,), (1,) * 9), "genus-4 shape needs max(2 deg h, deg f) in {9, 10}"),
    (ProjectiveTransform, (F2, _ID4[:3]), "a projective substitution needs a 4x4 matrix"),
    (ProjectiveTransform, (F2, (_ID4[0],) * 4), "substitution matrix is singular"),
    # not a class: weil_from_counts checks its counts and q before any arithmetic
    (weil_from_counts, ((3, 5, 9), 2), "expected exactly 4 point counts (N_1..N_4)"),
    (weil_from_counts, ((3, 5, 9, -1), 2), "point counts must be nonnegative integers"),
    (weil_from_counts, ((3, 5, 9, 17), 3), "base field size 3 is not a power of 2 (>= 2)"),
    (WeilPolynomial, ((2, 0, 1, 0), 2), "Weil polynomial degree 3 not an even number in 2..8"),
    (WeilPolynomial, ((2, 0, 2), 2), "Weil polynomial must be monic"),
    (WeilPolynomial, ((6, 0, 1), 6), "base field size 6 is not a power of 2 (>= 2)"),
    (WeilPolynomial, ((3, 0, 1), 2), "functional equation fails: not a Weil polynomial"),
    (NewtonPolygon, ((Fraction(3, 2), Fraction(-1, 2)),), "Newton polygon slopes must ascend within [0, 1]"),
    (NewtonPolygon, ((Fraction(1, 3), _HALF),), "asymmetric Newton polygon (invalid Weil polynomial)"),
    (EoLabel, ((2, 3),), "ill-formed Young type (2, 3): must be strictly decreasing and positive"),
    (EoLabel, ((5,),), "ill-formed Young type (5,) for g = 4"),
    # g = 1: row i of F and V is the image of Z_{i+1}; F = (0, 1), V = (0, 1) is a BT_1 module
    (Bt1Module, (1, (0, 1), (0,)), "F/V matrices must be 2g rows of 2g bits"),
    (Bt1Module, (1, (0, 0), (0, 0)), "not a BT1 module: dim ker F = 2 != g = 1"),
    (Bt1Module, (1, (0, 1), (0, 2)), "not a BT1 module: ker F != im V"),
    (Bt1Module, (1, (0, 1), (1, 0)), "not a BT1 module: ker V != im F"),
    (Bt1Module, (1, (0, 1), (0, 1), (1, 0)), "pairing must be a nondegenerate 2g x 2g matrix"),
    (Bt1Module, (1, (0, 1), (0, 1), (1, 2)), "pairing must be alternating (zero diagonal)"),
    (Bt1Module, (_BT1.g, _BT1.f_rows, _BT1.v_rows, (6, 1, 8, 4, 32, 16, 128, 64)), "pairing must be symmetric"),
    (Bt1Module, (1, (0, 1), (0, 1), (2, 1), ("X",)), "need one label per basis vector"),
    (SemilinearOperator, (F2, _ID4[:3]), "expected a 4x4 matrix of basis images"),
    (SemilinearOperator, (F2, ((2, 0, 0, 0),) + _ID4[1:]), "0x2 is not an element of F_{2^1}"),
]


@pytest.mark.parametrize("cls, args, message", REFUSED,
                         ids=[f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(REFUSED)])
def test_value_class_checks_keep_their_messages(cls, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(*args)


def test_import_builds_no_table_and_runs_no_check():
    """A fresh process imports what the CLI and the benchmark import; the
    package then has not loaded dataclasses, built any cached table or
    field beyond F_2, or filled any cache."""
    code = """if True:
        import functools, json, sys
        from genus4census import census, cli, curves, elimination, gfarith
        named = [curves._quadric_tables, curves._quadric_image_tables,
                 census._hyp_count_tables, census._hyp_smooth_table]
        caches = {f"{mod.__name__}.{name}": fn.cache_info().currsize
                  for mod in (census, cli, curves, elimination, gfarith)
                  for name, fn in vars(mod).items() if hasattr(fn, "cache_info")}
        print(json.dumps({"dataclasses": "dataclasses" in sys.modules,
                          "named": [fn.cache_info().currsize for fn in named],
                          "fields": gfarith.field.cache_info().currsize,
                          "f2_tables": "_tables" in gfarith.F2.__dict__,
                          "caches": caches}))
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    got = json.loads(out.stdout)
    assert got["dataclasses"] is False
    assert got["named"] == [0, 0, 0, 0]
    assert got["fields"] <= 1 and got["f2_tables"] is False  # F_2 itself, untouched
    filled = {name: n for name, n in got["caches"].items() if n and not name.endswith(".field")}
    assert filled == {}
    assert len(got["caches"]) >= 10

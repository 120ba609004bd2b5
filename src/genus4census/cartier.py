"""Cartier operators and Hasse-Witt matrices of genus-4 curves in char 2.

The Cartier operator C acts 1/2-linearly on the 4-dimensional space of
regular differentials: C(a w) = sqrt(a) C(w).  We store its matrix row-wise,
rows[i] = coordinates of C(w_i) in the chosen basis, so

    apply(v) = sum_i sqrt(v_i) * rows[i].

The Hasse-Witt matrix (Frobenius on H^1(O)) has the entrywise squares of the
Cartier matrix in the dual basis; over F_2 the two coincide.  Both have the
same rank, so the a-number is 4 - rank(C) and the 2-rank is the rank of the
fourth semilinear power (the stable rank).

The ranks are taken in the F_2-linear picture.  Over F = F_{2^k}, C is
F_2-linear on F^4 = F_2^{4k}: sqrt is additive in characteristic 2.  The
images of the 4k basis vectors x^b e_i are packed as 4k-bit ints (bit
j k + b is the coefficient of x^b in coordinate j), so C^2 and C^4 are
compositions by gfarith.xor_apply and each rank is the length of the
reduced basis from gfarith.f2_rref.  The image of C^n
is an F-subspace, because C^n(l v) = l^(1/2^n) C^n(v) and taking 2^n-th
roots is onto F; an F-subspace of dimension r has F_2-dimension r k, so
the F-rank is the F_2-rank divided by k, and C^2 = 0 holds in one picture
exactly when it holds in the other.  One call gives the rank of C, the
rank of C^4 and whether C^2 = 0, so invariants reads C^2 once for both the
[4,3] test and the 2-rank.

One rule builds the matrix for every model (cartier_operator).  For p = 2,
Stohr-Voloch (J. reine angew. Math. 377, 1987) gives, for a plane model
F(v, u) = 0 and a regular differential m dv/F_u,

    C(m dv/F_u) = (d^2(F m)/du dv)^(1/2) dv/F_u,

so the row of m reads the coefficients of F m at odd-odd exponents.  Each
kind's description (kinds.Kind) gives the monomials m of its basis, and a
quadric kind the chart of its quadric that is its plane model (the
bidegree-(3,3) grid T = 1 on ns, X = 1 on the cone).  On hyp the model is
y^2 + h(x) y + f(x) with v = y, u = x, and m in {1, x, x^2, x^3}.  Only the
h y terms have odd y-degree, so row i is B with x^i h = A^2 + B^2 x; only h
enters, consistent with Deuring-Shafarevich (the 2-rank depends on the
branch divisor only).

On a quadric kind the chart polynomial's coefficients are F_2-linear in
the 16 bits of the cubic's mask, and over F_2 the square root is the
identity, so the Cartier matrix of a mask is F_2-linear in its bits too:
the XOR of the matrices of its set bits.  A matrix over F_2 packs into a
16-bit word, bit 4 i + j holding row i, column j (cartier_word), so the
word of any mask is the XOR of 16 basis words, one per single-bit mask,
built from cartier_operator once per kind on first use
(quadric_cartier_word, by xor_apply).  The same holds for hyp in the
bits of h: row i is the odd part of x^i h, so the word of any h is the XOR
of 6 basis words, one per h = x^j (hyp_cartier_word).  Nibble i of a word
is C(e_i), so the ranks read the word directly (word_invariants), once per
distinct word, for every kind.

The [4,3]-candidate criterion (rank 2 and C^2 = 0 at 2-rank 0) is stated for
curves on the smooth quadric; this module applies the same matrix test to
cone and hyperelliptic operators as well, which is a heuristic extension,
not a theorem.  The census's verify checks the criterion on ns models only.
"""

from __future__ import annotations

from functools import lru_cache

from ._value import Value, setfield
from .curves import (HyperellipticCurve, QuadricCubicCurve, biv_from_rows, chart_polynomial,
                     hyperelliptic_from_masks, quadric_curve_from_mask)
from .gfarith import FieldSpec, f2_rref, xor_apply
from .kinds import DESCRIPTIONS, quadric

__all__ = [
    "SemilinearOperator",
    "cartier_operator",
    "cartier_word",
    "quadric_cartier_word",
    "hyp_cartier_word",
    "word_invariants",
    "hasse_witt_rows",
    "a_number",
    "two_rank",
    "invariants",
]

GENUS = 4


class SemilinearOperator(Value):
    """A 1/2-linear operator on a 4-dimensional space, by basis images."""

    __slots__ = _fields = ("spec", "rows")

    def __init__(self, spec: FieldSpec, rows: tuple[tuple[int, int, int, int], ...]):
        setfield(self, "spec", spec)
        setfield(self, "rows", rows)
        if len(rows) != GENUS or any(len(r) != GENUS for r in rows):
            raise ValueError("expected a 4x4 matrix of basis images")
        for r in rows:
            for c in r:
                spec.check(c)

    @property
    def rank(self) -> int:
        return _bit_ranks(self)[0]


# ---------------------------------------------------------------------------
# the Stohr-Voloch rule
# ---------------------------------------------------------------------------


def cartier_operator(curve) -> SemilinearOperator:
    """Cartier matrix of a smooth model by the Stohr-Voloch rule: the row
    of basis monomial m holds the square roots of the coefficients of F m
    at the odd-odd cells (2i+1, 2j+1), in the column of basis cell (i, j)
    of the differential basis of the model's kind (kinds.Kind.cartier_basis);
    a quadric model's plane model is the chart of its Kind.cartier_chart."""
    if isinstance(curve, HyperellipticCurve):
        f = biv_from_rows(curve.spec, (curve.f, curve.h, (1,)))
    elif isinstance(curve, QuadricCubicCurve):
        f = chart_polynomial(curve, DESCRIPTIONS[curve.kind].cartier_chart)
    else:
        raise TypeError(f"not a curve: {curve!r}")
    basis = DESCRIPTIONS[curve.kind].cartier_basis
    spec = curve.spec
    column = {cell: j for j, cell in enumerate(basis)}
    rows = []
    for mv, mu in basis:
        row = [spec.zero] * GENUS
        for v, p in enumerate(f, mv):
            if v & 1:
                for u, c in enumerate(p, mu):
                    if c and u & 1:
                        j = column.get((v >> 1, u >> 1))
                        if j is None:
                            raise AssertionError("an odd-odd term lies outside the differential basis")
                        row[j] = spec.sqrt(c)
        rows.append(tuple(row))
    return SemilinearOperator(spec, tuple(rows))


def cartier_word(op: SemilinearOperator) -> int:
    """An operator over F_2 as a 16-bit word: bit 4 i + j is rows[i][j]."""
    if op.spec.k != 1:
        raise ValueError("a Cartier word packs an operator over F_2")
    return sum(c << (4 * i + j) for i, row in enumerate(op.rows) for j, c in enumerate(row))


@lru_cache(maxsize=None)
def _basis_words(kind: str) -> tuple[int, ...]:
    """The Cartier words of the 16 single-bit masks of a quadric kind, or for
    hyp of h = x^j, j < 6 (f does not enter, so f = x^10)."""
    models = ([quadric_curve_from_mask(kind, 1 << bit) for bit in range(16)] if DESCRIPTIONS[kind].quadric
              else [hyperelliptic_from_masks(1 << j, 1 << 10) for j in range(6)])
    return tuple(cartier_word(cartier_operator(model)) for model in models)


def quadric_cartier_word(kind: str, mask: int) -> int:
    """cartier_word(cartier_operator(quadric_curve_from_mask(kind, mask))),
    as the XOR of the basis words of the mask's set bits."""
    return xor_apply(_basis_words(quadric(kind).name), mask)


def hyp_cartier_word(hm: int) -> int:
    """cartier_word(cartier_operator(hyperelliptic_from_masks(hm, f))) for
    any f, as the XOR of the basis words of the set bits of the h mask hm."""
    return xor_apply(_basis_words("hyp"), hm)


def hasse_witt_rows(op: SemilinearOperator) -> tuple[tuple[int, int, int, int], ...]:
    spec = op.spec
    return tuple(tuple(spec.mul(c, c) for c in row) for row in op.rows)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def _bit_images(op: SemilinearOperator) -> list[int]:
    """C(x^b e_i) for i < 4, b < k, packed as 4k-bit ints; entry i k + b is
    the image of the basis vector that is bit i k + b of a packed vector."""
    spec, k = op.spec, op.spec.k
    roots = [spec.sqrt(1 << b) for b in range(k)]
    return [sum(spec.mul(s, c) << (k * j) for j, c in enumerate(row)) for row in op.rows for s in roots]


def _bit_ranks(op: SemilinearOperator) -> tuple[int, int, bool]:
    """(rank C, rank C^4, C^2 = 0) over F, from the F_2-linear picture."""
    return _image_ranks(_bit_images(op), op.spec.k)


def _image_ranks(c1: list[int], k: int) -> tuple[int, int, bool]:
    """_bit_ranks of the operator whose packed basis images are c1."""
    c2 = [xor_apply(c1, v) for v in c1]
    c4 = [xor_apply(c2, v) for v in c2]
    return len(f2_rref(c1)) // k, len(f2_rref(c4)) // k, not any(c2)


def a_number(op: SemilinearOperator) -> int:
    return GENUS - op.rank


def two_rank(op: SemilinearOperator) -> int:
    """The p-rank: stable rank of the semilinear iterates (reached by g)."""
    return _bit_ranks(op)[1]


def invariants(op: SemilinearOperator) -> tuple[int, int, bool | None]:
    """(a-number, 2-rank, type43), with type43 None unless the 2-rank is 0."""
    return _invariants(*_bit_ranks(op))


@lru_cache(maxsize=None)
def word_invariants(word: int) -> tuple[int, int, bool | None]:
    """invariants of the operator over F_2 whose cartier_word is word."""
    return _invariants(*_image_ranks([(word >> (4 * i)) & 15 for i in range(GENUS)], 1))


def _invariants(rank: int, s2: int, square_zero: bool) -> tuple[int, int, bool | None]:
    return GENUS - rank, s2, (rank == 2 and square_zero) if s2 == 0 else None

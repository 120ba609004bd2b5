"""Cartier operators and Hasse-Witt matrices of genus-4 curves in char 2.

The Cartier operator C acts 1/2-linearly on the 4-dimensional space of
regular differentials: C(a w) = sqrt(a) C(w).  We store its matrix row-wise,
rows[i] = coordinates of C(w_i) in the chosen basis, so

    apply(v) = sum_i sqrt(v_i) * rows[i].

The Hasse-Witt matrix (Frobenius on H^1(O)) has the entrywise squares of the
Cartier matrix in the dual basis; over F_2 the two coincide.  Both have the
same rank, so the a-number is 4 - rank(C) and the 2-rank is the rank of the
fourth semilinear power (the stable rank).

One rule builds the matrix for every model (cartier_operator).  For p = 2,
Stohr-Voloch (J. reine angew. Math. 377, 1987) gives, for a plane model
F(v, u) = 0 and a regular differential m dv/F_u,

    C(m dv/F_u) = (d^2(F m)/du dv)^(1/2) dv/F_u,

so the row of m reads the coefficients of F m at odd-odd exponents.  Each
kind supplies a plane polynomial and the monomials m of its basis:

* ns: the bidegree-(3,3) grid on the chart T = 1 of X*Y + Z*T,
  (X : Y : Z : T) = (x : y : xy : 1) with v = x, u = y, and m in
  {1, x, y, xy};
* cone: the chart X = 1 of X*Y + T^2, (1 : u^2 : v : u), with m in
  {1, u, u^2, v};
* hyp: y^2 + h(x) y + f(x) with v = y, u = x, and m in {1, x, x^2, x^3}.  Only the h y terms
  have odd y-degree, so row i is B with x^i h = A^2 + B^2 x; only h enters,
  consistent with Deuring-Shafarevich (the 2-rank depends on the branch
  divisor only).

The [4,3]-candidate criterion (rank 2 and C^2 = 0 at 2-rank 0) is stated for
curves on the smooth quadric; this module applies the same matrix test to
cone and hyperelliptic operators as well, which is a heuristic extension,
not a theorem.  The census's verify checks the criterion on ns models only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import HyperellipticCurve, QuadricCubicCurve, chart_polynomial
from .elimination import biv_from_rows
from .gfarith import FieldSpec

__all__ = [
    "SemilinearOperator",
    "matrix_rank",
    "semilinear_power",
    "cartier_operator",
    "hasse_witt_rows",
    "a_number",
    "two_rank",
    "is_type43_candidate",
    "invariants",
]

GENUS = 4


def matrix_rank(spec: FieldSpec, rows) -> int:
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = spec.inv(work[rank][col])
        work[rank] = [spec.mul(inv, c) for c in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                factor = work[r][col]
                work[r] = [spec.add(a, spec.mul(factor, b)) for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


@dataclass(frozen=True)
class SemilinearOperator:
    """A 1/2-linear operator on a 4-dimensional space, by basis images."""

    spec: FieldSpec
    rows: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        if len(self.rows) != GENUS or any(len(r) != GENUS for r in self.rows):
            raise ValueError("expected a 4x4 matrix of basis images")
        for r in self.rows:
            for c in r:
                self.spec.check(c)

    def apply(self, vec) -> tuple[int, int, int, int]:
        spec = self.spec
        out = [spec.zero] * GENUS
        for c, row in zip(vec, self.rows):
            if c:
                s = spec.sqrt(c)
                out = [spec.add(o, spec.mul(s, r)) for o, r in zip(out, row)]
        return tuple(out)

    @property
    def rank(self) -> int:
        return matrix_rank(self.spec, self.rows)

    def is_zero(self) -> bool:
        return all(not c for r in self.rows for c in r)


def semilinear_power(op: SemilinearOperator, n: int) -> SemilinearOperator:
    """Basis images of the n-fold composite C^n (an 1/2^n-linear map; the
    returned object's own apply is only meaningful for n <= 1, but the rows
    and their rank are exact for every n)."""
    if n < 0:
        raise ValueError("negative powers are not defined")
    basis = [tuple(op.spec.one if j == i else op.spec.zero for j in range(GENUS)) for i in range(GENUS)]
    rows = []
    for e in basis:
        v = e
        for _ in range(n):
            v = op.apply(v)
        rows.append(v)
    return SemilinearOperator(op.spec, tuple(rows))


# ---------------------------------------------------------------------------
# the Stohr-Voloch rule
# ---------------------------------------------------------------------------

# the basis monomials v^i u^j of each plane model as cells (i, j), and on the
# quadrics the chart of curves._CHARTS that is the model
_QUADRIC_MODEL = {"ns": ("T", ((0, 0), (1, 0), (0, 1), (1, 1))),   # 1, x, y, xy
                  "cone": ("X", ((0, 0), (0, 1), (0, 2), (1, 0)))}  # 1, u, u^2, v
_HYP_BASIS = ((0, 0), (0, 1), (0, 2), (0, 3))                       # 1, x, x^2, x^3


def cartier_operator(curve) -> SemilinearOperator:
    """Cartier matrix of a smooth model by the Stohr-Voloch rule: the row
    of basis monomial m holds the square roots of the coefficients of F m
    at the odd-odd cells (2i+1, 2j+1), in the column of basis cell (i, j)."""
    if isinstance(curve, HyperellipticCurve):
        f, basis = biv_from_rows(curve.spec, (curve.f, curve.h, (1,))), _HYP_BASIS
    elif isinstance(curve, QuadricCubicCurve):
        chart, basis = _QUADRIC_MODEL[curve.kind]
        f = chart_polynomial(curve, chart)
    else:
        raise TypeError(f"not a curve: {curve!r}")
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


def hasse_witt_rows(op: SemilinearOperator) -> tuple[tuple[int, int, int, int], ...]:
    spec = op.spec
    return tuple(tuple(spec.mul(c, c) for c in row) for row in op.rows)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def a_number(op: SemilinearOperator) -> int:
    return GENUS - op.rank


def two_rank(op: SemilinearOperator) -> int:
    """The p-rank: stable rank of the semilinear iterates (reached by g)."""
    return semilinear_power(op, GENUS).rank


def is_type43_candidate(op: SemilinearOperator) -> bool:
    """rank C = 2 and C^2 = 0, the matrix shape singling out [4, 3] among
    the a-number-2 strata; only meaningful at 2-rank zero."""
    if two_rank(op) != 0:
        raise ValueError("criterion only valid at p-rank 0")
    return op.rank == 2 and semilinear_power(op, 2).is_zero()


def invariants(op: SemilinearOperator) -> tuple[int, int, bool | None]:
    """(a-number, 2-rank, type43), with type43 None unless the 2-rank is 0."""
    s2 = two_rank(op)
    return a_number(op), s2, is_type43_candidate(op) if s2 == 0 else None

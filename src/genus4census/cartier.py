"""Cartier operators and Hasse-Witt matrices of genus-4 curves in char 2.

The Cartier operator C acts 1/2-linearly on the 4-dimensional space of
regular differentials: C(a w) = sqrt(a) C(w).  We store its matrix row-wise,
rows[i] = coordinates of C(w_i) in the chosen basis, so

    apply(v) = sum_i sqrt(v_i) * rows[i].

The Hasse-Witt matrix (Frobenius on H^1(O)) has the entrywise squares of the
Cartier matrix in the dual basis; over F_2 the two coincide.  Both have the
same rank, so the a-number is 4 - rank(C) and the 2-rank is the rank of the
fourth semilinear power (the stable rank).

Bases:

* smooth-quadric curves: the bidegree-(3,3) model on P^1 x P^1 gives the
  basis s^a v^b ds/F_v indexed by (a, b) in {0,1}^2, and the matrix entries
  are coefficients of the affine grid (see hasse_witt_ns).
* hyperelliptic curves y^2 + h y = f: the basis x^(i-1) dx/h, i = 1..4.
  Writing x^(i-1) h = A^2 + B^2 x, the operator sends the i-th basis vector
  to B(x) dx/h; only h enters, consistent with Deuring-Shafarevich (the
  2-rank depends on the branch divisor only).
* cone curves carry no grid model here; their a-number at 2-rank zero is
  pinned to 2 by the rank-3 quadric geometry, and the census uses that rule
  instead of a matrix.

The [4,3]-candidate criterion (rank 2 and C^2 = 0 at 2-rank 0) is stated for
curves on the smooth quadric; this module applies the same matrix test to
hyperelliptic operators as well, which is a heuristic extension, not a
theorem.  The census records it only where it is justified.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import HyperellipticCurve, QuadricCubicCurve, affine_model_ns
from .gfarith import FieldSpec, poly_from_coeffs, poly_shift

__all__ = [
    "SemilinearOperator",
    "matrix_rank",
    "semilinear_power",
    "even_odd_split",
    "hasse_witt_ns",
    "cartier_ns",
    "cartier_hyperelliptic",
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
# curve-specific constructions
# ---------------------------------------------------------------------------


def hasse_witt_ns(grid) -> tuple[tuple[int, int, int, int], ...]:
    """Hasse-Witt matrix of a curve on the smooth quadric, from its affine
    bidegree grid a_ij (the output of affine_model_ns)."""
    a = grid
    return (
        (a[1][1], a[3][1], a[1][3], a[3][3]),
        (a[0][1], a[2][1], a[0][3], a[2][3]),
        (a[1][0], a[3][0], a[1][2], a[3][2]),
        (a[0][0], a[2][0], a[0][2], a[2][2]),
    )


def cartier_ns(curve: QuadricCubicCurve) -> SemilinearOperator:
    """Cartier operator of a curve on the smooth quadric: the entrywise
    square roots of the Hasse-Witt matrix (identical over F_2)."""
    spec = curve.spec
    hw = hasse_witt_ns(affine_model_ns(curve))
    return SemilinearOperator(spec, tuple(tuple(spec.sqrt(c) for c in row) for row in hw))


def even_odd_split(spec: FieldSpec, p) -> tuple[tuple, tuple]:
    """A, B with p(x) = A(x)^2 + B(x)^2 x, unique in characteristic 2."""
    a = [spec.sqrt(c) for c in p[0::2]]
    b = [spec.sqrt(c) for c in p[1::2]]
    return poly_from_coeffs(spec, a), poly_from_coeffs(spec, b)


def cartier_hyperelliptic(curve: HyperellipticCurve) -> SemilinearOperator:
    """Cartier matrix in the basis x^(i-1) dx/h: row i holds the
    coefficients of B where x^(i-1) h = A^2 + B^2 x."""
    spec = curve.spec
    rows = []
    for i in range(GENUS):
        p = poly_shift(spec, curve.h, i)
        _, b = even_odd_split(spec, p)
        if len(b) > GENUS:
            raise AssertionError("odd part exceeds the differential basis")
        rows.append(tuple(b[j] if j < len(b) else 0 for j in range(GENUS)))
    return SemilinearOperator(spec, tuple(rows))


def cartier_operator(curve) -> SemilinearOperator:
    if isinstance(curve, HyperellipticCurve):
        return cartier_hyperelliptic(curve)
    if isinstance(curve, QuadricCubicCurve):
        if curve.kind == "cone":
            raise ValueError("no grid model on the quadric cone; use the cone a-number rule")
        return cartier_ns(curve)
    raise TypeError(f"not a curve: {curve!r}")


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

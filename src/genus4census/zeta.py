"""Weil polynomials from point counts, Newton polygons, stratum labels.

Conventions.  For a smooth projective curve C of genus g over F_q (q = 2^r)
the characteristic polynomial of Frobenius is P(t) = prod (t - alpha_i),
monic of degree 2g, and the L-polynomial is L(t) = t^{2g} P(1/t) with
coefficients a_0 = 1, ..., a_{2g} = q^g.  Point counts determine power sums
s_n = sum alpha_i^n = q^n + 1 - N_n, and Newton's identities convert between
power sums and the a_i exactly over the integers.  The Newton polygon is the
lower convex hull of {(i, val_2(a_i)/r)}; its slopes are exact rationals.

Everything in this module is exact; no floats anywhere.  weil_from_counts
takes any q with Python ints; weil_rows_f2, the census's array form of it
over F_2, runs the same identities and checks on int64 columns, which are
exact for every count vector that passes the Weil bounds.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm

import numpy as np

GENUS = 4


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and n & (n - 1) == 0


@dataclass(frozen=True)
class PointCounts:
    """N_1..N_4 for a genus-4 curve over F_q, q a power of 2."""

    counts: tuple[int, int, int, int]
    q: int

    def __post_init__(self) -> None:
        if len(self.counts) != GENUS:
            raise ValueError("expected exactly 4 point counts (N_1..N_4)")
        if any(n < 0 or n != int(n) for n in self.counts):
            raise ValueError("point counts must be nonnegative integers")
        if not _is_power_of_two(self.q):
            raise ValueError(f"base field size {self.q} is not a power of 2 (>= 2)")


@dataclass(frozen=True)
class WeilPolynomial:
    """P(t) = prod (t - alpha_i), coefficients constant term first, monic.

    Degree 2g for g in 1..4; the genus-4 case is the primary one, smaller
    degrees exist so that products of factors can be formed.  The functional
    equation a_{2g-i} = q^{g-i} a_i is enforced; the root-circle condition
    |alpha_i| = sqrt(q) is implied by the Weil-bound checks on counts and is
    not re-verified here.
    """

    coeffs: tuple[int, ...]
    q: int

    def __post_init__(self) -> None:
        deg = len(self.coeffs) - 1
        if deg not in (2, 4, 6, 8):
            raise ValueError(f"Weil polynomial degree {deg} not an even number in 2..8")
        if self.coeffs[-1] != 1:
            raise ValueError("Weil polynomial must be monic")
        if not _is_power_of_two(self.q):
            raise ValueError(f"base field size {self.q} is not a power of 2 (>= 2)")
        g = deg // 2
        a = self.l_coeffs
        for i in range(g + 1):
            if a[deg - i] != self.q ** (g - i) * a[i]:
                raise ValueError("functional equation fails: not a Weil polynomial")

    @property
    def g(self) -> int:
        return (len(self.coeffs) - 1) // 2

    @property
    def l_coeffs(self) -> tuple[int, ...]:
        """L(t) = t^{2g} P(1/t) coefficients, a_0 = 1 first."""
        return tuple(reversed(self.coeffs))

    @property
    def r(self) -> int:
        """q = 2^r."""
        return self.q.bit_length() - 1


@dataclass(frozen=True)
class NewtonPolygon:
    """2g slopes, ascending, exact rationals in [0, 1]."""

    slopes: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        # in integers: slope n/d with d > 0, compared by cross-multiplying
        s = [(x.numerator, x.denominator) for x in self.slopes]
        if (any(not 0 <= n <= d for n, d in s)
                or any(n0 * d1 > n1 * d0 for (n0, d0), (n1, d1) in zip(s, s[1:]))):
            raise ValueError("Newton polygon slopes must ascend within [0, 1]")
        # ascending, so symmetric means s_i + s_{2g-1-i} = 1; the slopes then sum to g
        den = lcm(*(d for _, d in s))
        if (any(n0 * d1 + n1 * d0 != d0 * d1 for (n0, d0), (n1, d1) in zip(s, reversed(s)))
                or 2 * sum(n * (den // d) for n, d in s) != len(s) * den):
            raise ValueError("asymmetric Newton polygon (invalid Weil polynomial)")

    @property
    def p_rank(self) -> int:
        return sum(1 for x in self.slopes if x == 0)


@dataclass(frozen=True)
class StratumLabel:
    """One of Ordinary-or-other / V0-only / N14 / N13 / S4, with the p-rank."""

    name: str
    p_rank: int


def weil_from_counts(counts, q: int | None = None) -> WeilPolynomial:
    """Weil polynomial of a genus-4 curve from its counts over F_q..F_{q^4}.

    Accepts a PointCounts or a 4-sequence plus q.  Newton's identities give
    a_1..a_4 over exact integers; a_5..a_8 come from the functional equation.
    Rejects inputs that cannot come from a genus-4 curve (Weil-bound or
    integrality violations, or negative predicted counts N_5..N_8).
    """
    if not isinstance(counts, PointCounts):
        if q is None:
            raise TypeError("q is required when counts is a plain sequence")
        counts = PointCounts(tuple(counts), q)
    q = counts.q
    g = GENUS

    def bad(why: str) -> ValueError:
        return ValueError(f"not a genus-4 curve count sequence: {why}")

    s = [0] * (2 * g + 1)  # power sums, s[n] for n >= 1
    for n in range(1, g + 1):
        s[n] = q**n + 1 - counts.counts[n - 1]
        if s[n] * s[n] > 4 * g * g * q**n:
            raise bad(f"Weil bound violated at n={n}")
    a = [0] * (2 * g + 1)
    a[0] = 1
    for k in range(1, g + 1):
        total = s[k] + sum(a[i] * s[k - i] for i in range(1, k))
        if total % k:
            raise bad(f"Newton identity gives a non-integer coefficient at k={k}")
        a[k] = -total // k
    for k in range(g + 1, 2 * g + 1):
        a[k] = q ** (k - g) * a[2 * g - k]
    # extend the power sums and re-check plausibility out to n = 2g
    for n in range(g + 1, 2 * g + 1):
        s[n] = -(n * a[n] + sum(a[i] * s[n - i] for i in range(1, n)))
        if s[n] * s[n] > 4 * g * g * q**n:
            raise bad(f"Weil bound violated at n={n}")
        if q**n + 1 - s[n] < 0:
            raise bad(f"negative predicted point count at n={n}")
    return WeilPolynomial(tuple(reversed(a)), q)


# why weil_rows_f2 refuses a row, indexed by its failure code less one: the
# checks of weil_from_counts in its order, then predicted_counts' round trip
WEIL_ROW_FAILURES = (
    *(f"not a genus-4 curve count sequence: Weil bound violated at n={n}" for n in range(1, GENUS + 1)),
    *(f"not a genus-4 curve count sequence: Newton identity gives a non-integer coefficient at k={k}"
      for k in range(1, GENUS + 1)),
    *(f"not a genus-4 curve count sequence: {why} at n={n}" for n in range(GENUS + 1, 2 * GENUS + 1)
      for why in ("Weil bound violated", "negative predicted point count")),
    "count/Weil round trip failed",
)


def weil_rows_f2(counts) -> tuple[np.ndarray, np.ndarray]:
    """weil_from_counts over F_2, and the round trip of predicted_counts,
    for many count vectors at once.

    counts is an (m, 4) integer array of N_1..N_4 rows, each below 2^62.
    Returns (a, fail): a is the (m, 9) int64 array of the L-coefficients
    a_0..a_8 of each row (WeilPolynomial.l_coeffs), and fail an int64 array
    that is 0 for a row both functions accept and otherwise the failure
    code of the first check the row fails, an index into WEIL_ROW_FAILURES
    plus one; a failed row's coefficients mean nothing.  The checks run on
    columns of int64, exact for every row that passes the Weil bounds at
    n = 1..4, which bound all later values by a few thousand.
    """
    q, g = 2, GENUS
    n_rows = np.asarray(counts, np.int64).T
    fails = []

    def out_of_bound(s, n):  # s^2 > 4 g^2 q^n, without squaring s
        return np.abs(s) > isqrt(4 * g * g * q**n)

    s = [None] + [q**n + 1 - n_rows[n - 1] for n in range(1, g + 1)]
    fails += [out_of_bound(s[n], n) for n in range(1, g + 1)]
    a = [np.ones_like(s[1])]
    for k in range(1, g + 1):
        total = s[k] + sum(a[i] * s[k - i] for i in range(1, k))
        fails.append(total % k != 0)
        a.append(-total // k)
    a += [q ** (k - g) * a[2 * g - k] for k in range(g + 1, 2 * g + 1)]
    for n in range(g + 1, 2 * g + 1):
        s.append(-(n * a[n] + sum(a[i] * s[n - i] for i in range(1, n))))
        fails += [out_of_bound(s[n], n), q**n + 1 - s[n] < 0]
    fails.append(np.any(_predicted_columns(a, q, g) != n_rows, axis=0))
    fail = np.zeros(len(a[0]), np.int64)
    for code in range(len(fails), 0, -1):  # the first failing check wins
        fail[fails[code - 1]] = code
    return np.stack(a, axis=1), fail


def _predicted_columns(a: list, q: int, upto: int) -> np.ndarray:
    """predicted_counts(w, upto) as an (upto, m) array, for the columns a[i]
    of the L-coefficients of m Weil polynomials of degree >= upto."""
    s = [None]
    for n in range(1, upto + 1):
        s.append(-(n * a[n] + sum(a[i] * s[n - i] for i in range(1, n))))
    return np.stack([q**n + 1 - s[n] for n in range(1, upto + 1)])


def _power_sums(w: WeilPolynomial, upto: int) -> list[int]:
    """s_0..s_upto of the roots of w by Newton's identities (s_0 unused)."""
    deg = len(w.coeffs) - 1
    a = w.l_coeffs
    s = [0] * (upto + 1)
    for n in range(1, upto + 1):
        acc = sum(a[i] * s[n - i] for i in range(1, min(n, deg) + 1))
        if n <= deg:
            acc += n * a[n]
        s[n] = -acc
    return s


def predicted_counts(w: WeilPolynomial, upto: int = 8) -> tuple[int, ...]:
    """N_1..N_upto implied by w, via the power-sum recurrence."""
    s = _power_sums(w, upto)
    return tuple(w.q**n + 1 - s[n] for n in range(1, upto + 1))


def _val2(n: int) -> int:
    return (n & -n).bit_length() - 1


def newton_polygon(w: WeilPolynomial) -> NewtonPolygon:
    """Lower convex hull of {(i, val_2(a_i))}, slopes divided by r.

    The hull depends only on which a_i vanish, the valuations of the others
    and r, so it is memoised on that pattern: the full census has 156 of
    them for its 507 Weil polynomials.
    """
    return _newton_polygon(tuple(_val2(c) if c else None for c in w.l_coeffs), w.r)


@lru_cache(maxsize=None)
def _newton_polygon(vals: tuple[int | None, ...], r: int) -> NewtonPolygon:
    pts = [(i, v) for i, v in enumerate(vals) if v is not None]
    hull: list[tuple[int, int]] = []
    for p in pts:
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            # pop a if it is not strictly below the chord o->p
            if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    slopes: list[Fraction] = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        slopes.extend([Fraction(y1 - y0, (x1 - x0) * r)] * (x1 - x0))
    return NewtonPolygon(tuple(slopes))


_N13 = tuple([Fraction(1, 3)] * 3 + [Fraction(1, 2)] * 2 + [Fraction(2, 3)] * 3)
_N14 = tuple([Fraction(1, 4)] * 4 + [Fraction(3, 4)] * 4)
_S4 = tuple([Fraction(1, 2)] * 8)


def classify_stratum(np_: NewtonPolygon) -> StratumLabel:
    """Stratum label for a genus-4 Newton polygon."""
    if len(np_.slopes) != 2 * GENUS:
        raise ValueError("stratum classification requires genus 4 (8 slopes)")
    p_rank = np_.p_rank
    if np_.slopes == _S4:
        return StratumLabel("S4", 0)
    if np_.slopes == _N13:
        return StratumLabel("N13", 0)
    if np_.slopes == _N14:
        return StratumLabel("N14", 0)
    if p_rank == 0:
        return StratumLabel("V0-only", 0)
    return StratumLabel("Ordinary-or-other", p_rank)


def base_extend(w: WeilPolynomial, n: int) -> WeilPolynomial:
    """prod (t - alpha_i^n), exactly; q becomes q^n.

    The roots alpha_i^n have power sums s_{nk}, so Newton's identities read
    off the coefficients b_k over the integers.
    """
    if n < 1:
        raise ValueError("extension degree must be >= 1")
    if n == 1:
        return w
    deg = len(w.coeffs) - 1
    s = _power_sums(w, n * deg)
    b = [1]
    for k in range(1, deg + 1):
        b.append(-(s[n * k] + sum(b[i] * s[n * (k - i)] for i in range(1, k))) // k)
    return WeilPolynomial(tuple(reversed(b)), w.q**n)

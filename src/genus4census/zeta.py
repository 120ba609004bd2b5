"""Weil polynomials from point counts, Newton polygons, stratum labels.

Conventions.  For a smooth projective curve C of genus g over F_q (q = 2^r)
the characteristic polynomial of Frobenius is P(t) = prod (t - alpha_i),
monic of degree 2g, and the L-polynomial is L(t) = t^{2g} P(1/t) with
coefficients a_0 = 1, ..., a_{2g} = q^g.  Point counts determine power sums
s_n = sum alpha_i^n = q^n + 1 - N_n, and Newton's identities convert between
power sums and the a_i exactly over the integers.  The Newton polygon is the
lower convex hull of {(i, val_2(a_i)/r)}; its slopes are exact rationals.

Everything in this module is exact; no floats anywhere.  One pass,
_weil_columns, runs Newton's identities and their checks on columns that
are either Python ints (weil_from_counts, any q) or int64 arrays
(weil_rows_f2, the census's rows over F_2), which are exact for every count
vector that passes the Weil bounds; predicted_counts runs its recurrence.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

import numpy as np

from ._value import Value, setfield

GENUS = 4


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and n & (n - 1) == 0


class WeilPolynomial(Value):
    """P(t) = prod (t - alpha_i), coefficients constant term first, monic.

    Degree 2g for g in 1..4; the genus-4 case is the primary one, smaller
    degrees exist so that products of factors can be formed.  The functional
    equation a_{2g-i} = q^{g-i} a_i is enforced; the root-circle condition
    |alpha_i| = sqrt(q) is implied by the Weil-bound checks on counts and is
    not re-verified here.
    """

    __slots__ = _fields = ("coeffs", "q")

    def __init__(self, coeffs: tuple[int, ...], q: int) -> None:
        setfield(self, "coeffs", coeffs)
        setfield(self, "q", q)
        deg = len(coeffs) - 1
        if deg not in (2, 4, 6, 8):
            raise ValueError(f"Weil polynomial degree {deg} not an even number in 2..8")
        if coeffs[-1] != 1:
            raise ValueError("Weil polynomial must be monic")
        if not _is_power_of_two(q):
            raise ValueError(f"base field size {q} is not a power of 2 (>= 2)")
        g = deg // 2
        a = self.l_coeffs
        for i in range(g + 1):
            if a[deg - i] != q ** (g - i) * a[i]:
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


class NewtonPolygon(Value):
    """2g slopes, ascending, exact rationals in [0, 1]."""

    __slots__ = _fields = ("slopes",)

    def __init__(self, slopes: tuple[Fraction, ...]) -> None:
        setfield(self, "slopes", slopes)
        # in integers: slope n/d with d > 0, compared by cross-multiplying
        s = [(x.numerator, x.denominator) for x in slopes]
        if (any(not 0 <= n <= d for n, d in s)
                or any(n0 * d1 > n1 * d0 for (n0, d0), (n1, d1) in zip(s, s[1:]))):
            raise ValueError("Newton polygon slopes must ascend within [0, 1]")
        # ascending, so symmetric means s_i + s_{2g-1-i} = 1; the slopes then sum to g
        if any(n0 * d1 + n1 * d0 != d0 * d1 for (n0, d0), (n1, d1) in zip(s, reversed(s))):
            raise ValueError("asymmetric Newton polygon (invalid Weil polynomial)")

    @property
    def p_rank(self) -> int:
        return sum(1 for x in self.slopes if x == 0)


class StratumLabel(Value):
    """One of Ordinary-or-other / V0-only / N14 / N13 / S4, with the p-rank."""

    __slots__ = _fields = ("name", "p_rank")

    def __init__(self, name: str, p_rank: int) -> None:
        setfield(self, "name", name)
        setfield(self, "p_rank", p_rank)


# why a count vector is refused, indexed by its flag in _weil_columns: the
# Weil bounds at n = 1..4, integrality of a_1..a_4, the Weil bound and the
# sign of the predicted N_n at n = 5..8, then the count round trip
WEIL_ROW_FAILURES = (
    *(f"not a genus-4 curve count sequence: Weil bound violated at n={n}" for n in range(1, GENUS + 1)),
    *(f"not a genus-4 curve count sequence: Newton identity gives a non-integer coefficient at k={k}"
      for k in range(1, GENUS + 1)),
    *(f"not a genus-4 curve count sequence: {why} at n={n}" for n in range(GENUS + 1, 2 * GENUS + 1)
      for why in ("Weil bound violated", "negative predicted point count")),
    "count/Weil round trip failed",
)


def _weil_columns(counts, q: int) -> tuple[list, list]:
    """Newton's identities and every check on them, over columns.

    counts holds N_1..N_4, each a column: a Python int, or an int64 array
    with one entry per count vector.  Returns (a, flags): a the
    L-coefficients a_0..a_8 as columns, and flags one column per entry of
    WEIL_ROW_FAILURES, true where that check fails; where any flag is set
    the coefficients mean nothing.  Only + - * // % abs and comparisons
    touch the columns, so int64 columns give the exact integers for every
    vector that passes the Weil bounds at n = 1..4, which bound all later
    values by a few thousand.
    """
    g = GENUS
    # |s_n| > bound[n] is the Weil bound s_n^2 > 4 g^2 q^n broken, without squaring s_n
    bound = [None] + [isqrt(4 * g * g * q**n) for n in range(1, 2 * g + 1)]
    s = [None] + [q**n + 1 - counts[n - 1] for n in range(1, g + 1)]
    flags = [abs(s[n]) > bound[n] for n in range(1, g + 1)]
    a = [s[1] * 0 + 1]  # a_0 = 1, in the columns' type
    for k in range(1, g + 1):
        total = s[k] + sum(a[i] * s[k - i] for i in range(1, k))
        flags.append(total % k != 0)
        a.append(-total // k)
    a += [q ** (k - g) * a[2 * g - k] for k in range(g + 1, 2 * g + 1)]
    predicted = _predicted_columns(a, q, 2 * g)
    for n in range(g + 1, 2 * g + 1):
        flags += [abs(q**n + 1 - predicted[n - 1]) > bound[n], predicted[n - 1] < 0]
    flags.append(sum(predicted[n] != counts[n] for n in range(g)) > 0)
    return a, flags


def _predicted_columns(a: list, q: int, upto: int) -> list:
    """N_1..N_upto from the L-coefficient columns a_0..a_deg, by the
    power-sum recurrence s_n = q^n + 1 - N_n of Newton's identities."""
    deg = len(a) - 1
    s = [None]
    for n in range(1, upto + 1):
        terms = (a[i] * s[n - i] for i in range(1, min(n - 1, deg) + 1))
        s.append(-sum(terms, n * a[n] if n <= deg else 0))
    return [q**n + 1 - s[n] for n in range(1, upto + 1)]


def weil_from_counts(counts, q: int) -> WeilPolynomial:
    """Weil polynomial of a genus-4 curve from its counts N_1..N_4 over
    F_q..F_{q^4}, exactly, for any q a power of 2.

    Rejects, with the first message of WEIL_ROW_FAILURES that applies,
    counts that cannot come from a genus-4 curve: Weil-bound or
    integrality violations, negative predicted counts N_5..N_8, or a
    failed round trip.
    """
    if len(counts) != GENUS:
        raise ValueError("expected exactly 4 point counts (N_1..N_4)")
    if any(n < 0 or n != int(n) for n in counts):
        raise ValueError("point counts must be nonnegative integers")
    if not _is_power_of_two(q):
        raise ValueError(f"base field size {q} is not a power of 2 (>= 2)")
    a, flags = _weil_columns([int(n) for n in counts], q)
    for flag, why in zip(flags, WEIL_ROW_FAILURES):
        if flag:
            raise ValueError(why)
    return WeilPolynomial(tuple(reversed(a)), q)


def weil_rows_f2(counts) -> tuple[np.ndarray, np.ndarray]:
    """weil_from_counts over F_2 for many count vectors at once.

    counts is an (m, 4) integer array of N_1..N_4 rows, each below 2^62.
    Returns (a, fail): a is the (m, 9) int64 array of the L-coefficients
    a_0..a_8 of each row (WeilPolynomial.l_coeffs), and fail an int64 array
    that is 0 for a row weil_from_counts accepts and otherwise the failure
    code of the first check the row fails, an index into WEIL_ROW_FAILURES
    plus one; a failed row's coefficients mean nothing.
    """
    a, flags = _weil_columns(np.asarray(counts, np.int64).T, 2)
    fail = np.zeros(len(a[0]), np.int64)
    for code in range(len(flags), 0, -1):  # the first failing check wins
        fail[flags[code - 1]] = code
    return np.stack(a, axis=1), fail


def predicted_counts(w: WeilPolynomial, upto: int = 8) -> tuple[int, ...]:
    """N_1..N_upto implied by w, via the power-sum recurrence."""
    return tuple(_predicted_columns(w.l_coeffs, w.q, upto))


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

"""Arithmetic foundations for everything else in this package.

Three layers, bottom to top:

* packed polynomials over F_2: a polynomial is a Python int whose bit i is
  the coefficient of x^i, so xor is addition and shifting is multiplication
  by x (``gf2x_*`` functions);
* the fields F_{2^k} for k <= 16: elements are ints < 2^k holding their
  polynomial-basis coordinates with respect to a fixed irreducible modulus
  (``FieldSpec``), plus compatible subfield embeddings;
* dense univariate polynomials over such a field (or over a quotient field
  built on top of one): tuples of elements, constant term first, no trailing
  zeros (``poly_*`` functions, ``PolyQuotientField``).

All arithmetic here is exact; nothing floats.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Sequence

# ---------------------------------------------------------------------------
# packed polynomials over F_2 (ints as bit vectors)
# ---------------------------------------------------------------------------


def gf2x_degree(a: int) -> int:
    """Degree of a packed F_2[x] polynomial; the zero polynomial has degree -1."""
    return a.bit_length() - 1


def gf2x_mul(a: int, b: int) -> int:
    """Carry-less product of two packed polynomials."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def gf2x_divmod(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of packed polynomials; b must be nonzero."""
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    db = gf2x_degree(b)
    q = 0
    while a and gf2x_degree(a) >= db:
        shift = gf2x_degree(a) - db
        q |= 1 << shift
        a ^= b << shift
    return q, a


def gf2x_mod(a: int, b: int) -> int:
    return gf2x_divmod(a, b)[1]


def gf2x_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, gf2x_mod(a, b)
    return a


def gf2x_deriv(a: int) -> int:
    """Formal derivative; only odd-degree terms survive in characteristic 2."""
    a >>= 1
    mask = 0
    for i in range(0, a.bit_length(), 2):
        mask |= 1 << i
    return a & mask


def gf2x_pow_mod(base: int, e: int, m: int) -> int:
    """base^e mod m for packed polynomials (e an ordinary integer >= 0)."""
    r = 1
    base = gf2x_mod(base, m)
    while e:
        if e & 1:
            r = gf2x_mod(gf2x_mul(r, base), m)
        base = gf2x_mod(gf2x_mul(base, base), m)
        e >>= 1
    return r


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        else:
            d += 1
    if n > 1:
        out.append(n)
    return out


def gf2x_is_irreducible(f: int) -> bool:
    """Rabin irreducibility test for a packed polynomial over F_2."""
    k = gf2x_degree(f)
    if k < 1:
        return False
    x = gf2x_mod(2, f)
    if gf2x_pow_mod(2, 1 << k, f) != x:
        return False
    for p in _prime_factors(k):
        if gf2x_gcd(gf2x_pow_mod(2, 1 << (k // p), f) ^ x, f) != 1:
            return False
    return True


def gf2x_invmod(a: int, m: int) -> int:
    """Inverse of a modulo m (packed polynomials); a must be coprime to m."""
    r0, r1 = m, gf2x_mod(a, m)
    s0, s1 = 0, 1
    while r1:
        q, r = gf2x_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ gf2x_mul(q, s1)
    if r0 != 1:
        raise ZeroDivisionError("element is not invertible modulo the given polynomial")
    return gf2x_mod(s0, m)


def gf2x_sqrt(a: int) -> int:
    """Square root of a perfect square: keep the even-index bits, halve exponents."""
    r = 0
    i = 0
    while a:
        if a & 1:
            r |= 1 << i
        if a & 2:
            raise ValueError("polynomial is not a square over F_2")
        a >>= 2
        i += 1
    return r


def gf2x_squarefree_decomposition(a: int) -> list[tuple[int, int]]:
    """[(s_i, m_i)] with a = prod s_i^{m_i}, s_i squarefree and pairwise coprime.

    Same Yun-in-characteristic-2 loop as poly_squarefree_decomposition, on
    packed polynomials.
    """
    if gf2x_degree(a) < 1:
        return []
    d = gf2x_deriv(a)
    if d == 0:
        return [(f, 2 * m) for f, m in gf2x_squarefree_decomposition(gf2x_sqrt(a))]
    out: list[tuple[int, int]] = []
    c = gf2x_gcd(a, d)
    w = gf2x_divmod(a, c)[0]
    i = 1
    while gf2x_degree(w) > 0:
        y = gf2x_gcd(w, c)
        z = gf2x_divmod(w, y)[0]
        if gf2x_degree(z) > 0:
            out.append((z, i))
        c = gf2x_divmod(c, y)[0]
        w = y
        i += 1
    if gf2x_degree(c) > 0:
        # c is a perfect square at this point; the recursion doubles for us
        out.extend(gf2x_squarefree_decomposition(c))
    return out


def _gf2x_trace_map(h: int, d: int, f: int) -> int:
    """h + h^2 + h^4 + ... + h^(2^(d-1)) reduced mod f."""
    t = 0
    cur = gf2x_mod(h, f)
    for _ in range(d):
        t ^= cur
        cur = gf2x_mod(gf2x_mul(cur, cur), f)
    return t


def _gf2x_equal_degree_split(f: int, d: int, out: list[int]) -> None:
    """Split a squarefree product of degree-d irreducible factors, recursively.

    Deterministic: sweep trace maps of x, x^2, x^3, ... until one separates
    the factors (they are distinguished by the F_2-linear traces of powers of
    the residue of x, since those generate the residue fields).
    """
    if gf2x_degree(f) == d:
        out.append(f)
        return
    j = 1
    while True:
        t = _gf2x_trace_map(gf2x_pow_mod(2, j, f), d, f)
        g = gf2x_gcd(f, t)
        if 0 < gf2x_degree(g) < gf2x_degree(f):
            _gf2x_equal_degree_split(g, d, out)
            _gf2x_equal_degree_split(gf2x_divmod(f, g)[0], d, out)
            return
        g = gf2x_gcd(f, t ^ 1)
        if 0 < gf2x_degree(g) < gf2x_degree(f):
            _gf2x_equal_degree_split(g, d, out)
            _gf2x_equal_degree_split(gf2x_divmod(f, g)[0], d, out)
            return
        j += 1


def gf2x_factor(a: int) -> list[tuple[int, int]]:
    """Factor a packed polynomial into irreducibles, as (factor, multiplicity)
    pairs sorted by degree then by packed value.  a must be nonzero."""
    if a == 0:
        raise ValueError("cannot factor the zero polynomial")
    out = []
    for sf, mult in gf2x_squarefree_decomposition(a):
        # distinct-degree stage on the squarefree part
        rem = sf
        xpow = gf2x_mod(2, rem)
        d = 0
        while gf2x_degree(rem) > 0:
            d += 1
            if 2 * d > gf2x_degree(rem):
                out.append((rem, mult))
                break
            xpow = gf2x_mod(gf2x_mul(xpow, xpow), rem)
            g = gf2x_gcd(rem, xpow ^ 2)
            if gf2x_degree(g) > 0:
                pieces: list[int] = []
                _gf2x_equal_degree_split(g, d, pieces)
                out.extend((p, mult) for p in pieces)
                rem = gf2x_divmod(rem, g)[0]
                xpow = gf2x_mod(xpow, rem)
    out.sort(key=lambda fm: (gf2x_degree(fm[0]), fm[0]))
    return out


# ---------------------------------------------------------------------------
# the fields F_{2^k}, k <= 16
# ---------------------------------------------------------------------------

#: Smallest irreducible modulus of each degree with nonzero constant term,
#: as packed polynomials.  Re-verified at import below.
SMALLEST_IRREDUCIBLE = {
    1: 0x3, 2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83, 8: 0x11B,
    9: 0x203, 10: 0x409, 11: 0x805, 12: 0x1009, 13: 0x201B, 14: 0x4021,
    15: 0x8003, 16: 0x1002B,
}

MAX_FIELD_BITS = 16


@dataclass(frozen=True)
class FieldSpec:
    """The field F_{2^k} presented as F_2[x]/(modulus).

    Elements are ints < 2^k; bit i is the coefficient of x^i.  The spec is
    supplied contextually to each operation rather than wrapped around every
    element.  Instances are hashable and interned via :func:`field`.
    """

    k: int
    modulus: int

    def __post_init__(self) -> None:
        if not 1 <= self.k <= MAX_FIELD_BITS:
            raise ValueError(f"field degree {self.k} outside supported range 1..{MAX_FIELD_BITS}")
        if gf2x_degree(self.modulus) != self.k:
            raise ValueError("modulus degree does not match field degree")
        if not gf2x_is_irreducible(self.modulus):
            raise ValueError(f"modulus {self.modulus:#x} is reducible")

    # -- scalars --------------------------------------------------------
    zero = 0
    one = 1

    @property
    def order(self) -> int:
        return 1 << self.k

    def elements(self) -> range:
        return range(1 << self.k)

    def f2_basis(self) -> list[int]:
        return [1 << i for i in range(self.k)]

    def check(self, a: int) -> int:
        if not 0 <= a < (1 << self.k):
            raise ValueError(f"{a:#x} is not an element of F_{{2^{self.k}}}")
        return a

    # -- arithmetic -----------------------------------------------------
    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        m = self.modulus
        k = self.k
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if (a >> k) & 1:
                a ^= m
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{{2^{self.k}}}")
        r0, r1 = self.modulus, a
        s0, s1 = 0, 1
        while r1:
            q, r = gf2x_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 ^ gf2x_mul(q, s1)
        # r0 == 1 since the modulus is irreducible and a != 0
        return gf2x_mod(s0, self.modulus)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def sqrt(self, a: int) -> int:
        """The unique square root: squaring is bijective in characteristic 2."""
        for _ in range(self.k - 1):
            a = self.mul(a, a)
        return a

    def trace(self, a: int) -> int:
        """Absolute trace down to F_2 (returns 0 or 1)."""
        t = a
        acc = a
        for _ in range(self.k - 1):
            t = self.mul(t, t)
            acc ^= t
        return acc


for _k, _m in SMALLEST_IRREDUCIBLE.items():
    if gf2x_degree(_m) != _k or not gf2x_is_irreducible(_m):
        raise AssertionError(f"bad hard-coded modulus for degree {_k}")
del _k, _m


@functools.lru_cache(maxsize=None)
def field(k: int) -> FieldSpec:
    """The canonical F_{2^k} with the smallest irreducible modulus."""
    if k not in SMALLEST_IRREDUCIBLE:
        raise ValueError(f"no supported field of degree {k} (need 1 <= k <= {MAX_FIELD_BITS})")
    return FieldSpec(k, SMALLEST_IRREDUCIBLE[k])


F2 = field(1)


# ---------------------------------------------------------------------------
# subfield embeddings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Embedding:
    """A ring embedding F_{2^a} -> F_{2^b} for a | b.

    Determined by sending the canonical generator of the small field to the
    smallest root (as an int) of its minimal polynomial in the big field.
    """

    sub: FieldSpec
    sup: FieldSpec
    generator_image: int

    def __call__(self, a: int) -> int:
        self.sub.check(a)
        img = 0
        p = self.sup.one
        i = 0
        while a >> i:
            if (a >> i) & 1:
                img ^= p
            p = self.sup.mul(p, self.generator_image)
            i += 1
        return img


@functools.lru_cache(maxsize=None)
def embedding(sub: FieldSpec, sup: FieldSpec) -> Embedding:
    """The canonical embedding; requires sub.k to divide sup.k."""
    if sup.k % sub.k != 0:
        raise ValueError(f"F_{{2^{sub.k}}} is not a subfield of F_{{2^{sup.k}}}")
    if sub == sup:
        return Embedding(sub, sup, 2 if sub.k > 1 else 1)
    minpoly = tuple((sub.modulus >> i) & 1 for i in range(sub.k + 1))
    roots = poly_roots(sup, minpoly)
    if len(roots) != sub.k:
        raise AssertionError("minimal polynomial did not split in the big field")
    return Embedding(sub, sup, min(roots))


# ---------------------------------------------------------------------------
# dense univariate polynomials over a field-like object
# ---------------------------------------------------------------------------
# A "field-like" object provides zero/one/order, add/mul/inv/pow/sqrt and
# f2_basis(); FieldSpec does, and so does PolyQuotientField below.  Polynomials
# are tuples of elements, constant term first, normalized (no trailing zeros);
# the zero polynomial is the empty tuple.


def poly_from_coeffs(F, coeffs: Sequence) -> tuple:
    cs = list(coeffs)
    while cs and cs[-1] == F.zero:
        cs.pop()
    return tuple(cs)


def poly_degree(p: tuple) -> int:
    return len(p) - 1


def poly_x(F) -> tuple:
    return (F.zero, F.one)


def poly_add(F, a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = F.add(out[i], c)
    return poly_from_coeffs(F, out)


def poly_scale(F, a: tuple, c) -> tuple:
    if c == F.zero:
        return ()
    return poly_from_coeffs(F, [F.mul(x, c) for x in a])


def poly_mul(F, a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == F.zero:
            continue
        for j, y in enumerate(b):
            if y != F.zero:
                out[i + j] = F.add(out[i + j], F.mul(x, y))
    return poly_from_coeffs(F, out)


def poly_shift(F, a: tuple, n: int) -> tuple:
    if not a:
        return ()
    return (F.zero,) * n + a


def poly_divmod(F, a: tuple, b: tuple) -> tuple[tuple, tuple]:
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if len(a) < len(b):
        return (), a
    inv_lc = F.inv(b[-1])
    rem = list(a)
    q = [F.zero] * (len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        c = rem[shift + len(b) - 1]
        if c == F.zero:
            continue
        c = F.mul(c, inv_lc)
        q[shift] = c
        for i, bc in enumerate(b):
            rem[shift + i] = F.add(rem[shift + i], F.mul(bc, c))
    return poly_from_coeffs(F, q), poly_from_coeffs(F, rem)


def poly_mod(F, a: tuple, b: tuple) -> tuple:
    return poly_divmod(F, a, b)[1]


def poly_monic(F, a: tuple) -> tuple:
    if not a or a[-1] == F.one:
        return a
    return poly_scale(F, a, F.inv(a[-1]))


def poly_gcd(F, a: tuple, b: tuple) -> tuple:
    while b:
        a, b = b, poly_mod(F, a, b)
    return poly_monic(F, a)


def poly_eval(F, p: tuple, x):
    acc = F.zero
    for c in reversed(p):
        acc = F.add(F.mul(acc, x), c)
    return acc


def poly_deriv(F, p: tuple) -> tuple:
    """Formal derivative in characteristic 2: only odd-degree terms survive."""
    return poly_from_coeffs(F, [p[i] if i % 2 == 1 else F.zero for i in range(1, len(p))])


def poly_pow_mod(F, p: tuple, e: int, m: tuple) -> tuple:
    r: tuple = (F.one,)
    p = poly_mod(F, p, m)
    while e:
        if e & 1:
            r = poly_mod(F, poly_mul(F, r, p), m)
        p = poly_mod(F, poly_mul(F, p, p), m)
        e >>= 1
    return r


def poly_resultant(F, a: tuple, b: tuple):
    """Resultant of two polynomials over a field of characteristic 2.

    Euclidean descent: Res(a, b) = lc(b)^(deg a - deg r) Res(b, r) where
    r = a mod b; all signs vanish in characteristic 2.  Res of two nonzero
    constants is 1; if exactly one input is the zero polynomial the result
    is 0 by convention; two zero inputs have no sensible value.
    """
    if not a and not b:
        raise ValueError("undefined resultant of two zero polynomials")
    if not a or not b:
        return F.zero
    res = F.one
    while poly_degree(b) > 0:
        r = poly_mod(F, a, b)
        if not r:
            return F.zero
        res = F.mul(res, F.pow(b[-1], poly_degree(a) - poly_degree(r)))
        a, b = b, r
    return F.mul(res, F.pow(b[0], poly_degree(a)))


# -- factorization over F_{2^m}-like fields ---------------------------------


def _poly_even_sqrt(F, p: tuple) -> tuple:
    """For p with zero derivative (all exponents even), the s with s^2 = p."""
    return poly_from_coeffs(F, [F.sqrt(p[i]) for i in range(0, len(p), 2)])


def poly_squarefree_decomposition(F, p: tuple) -> list[tuple[tuple, int]]:
    """[(s_i, m_i)] with p = lc * prod s_i^{m_i}, s_i squarefree monic, coprime."""
    p = poly_monic(F, p)
    if poly_degree(p) < 1:
        return []
    dp = poly_deriv(F, p)
    if not dp:
        return [(s, 2 * m) for s, m in poly_squarefree_decomposition(F, _poly_even_sqrt(F, p))]
    out: list[tuple[tuple, int]] = []
    c = poly_gcd(F, p, dp)
    w = poly_divmod(F, p, c)[0]
    i = 1
    while poly_degree(w) > 0:
        y = poly_gcd(F, w, c)
        z = poly_divmod(F, w, y)[0]
        if poly_degree(z) > 0:
            out.append((z, i))
        c = poly_divmod(F, c, y)[0]
        w = y
        i += 1
    if poly_degree(c) > 0:
        # c is now a perfect square, so the recursion doubles multiplicities
        out.extend(poly_squarefree_decomposition(F, c))
    return out


def _ring_f2_basis(F, n: int) -> Iterator[tuple]:
    """An F_2-basis of F[x]/(f) with deg f = n, as polynomials b * x^j."""
    for j in range(n):
        for b in F.f2_basis():
            yield poly_shift(F, (b,), j)


def _trace_poly(F, alpha: tuple, f: tuple, length: int) -> tuple:
    """sum_{i < length} alpha^(2^i) mod f — the absolute-trace evaluator."""
    t = poly_mod(F, alpha, f)
    acc = t
    for _ in range(length - 1):
        t = poly_mod(F, poly_mul(F, t, t), f)
        acc = poly_add(F, acc, t)
    return acc


def _equal_degree_split(F, f: tuple, d: int, out: list[tuple]) -> None:
    """Split f (squarefree, all irreducible factors of degree d) completely."""
    if poly_degree(f) == d:
        out.append(f)
        return
    m = F.order.bit_length() - 1
    for alpha in _ring_f2_basis(F, poly_degree(f)):
        t = _trace_poly(F, alpha, f, m * d)
        g = poly_gcd(F, f, t)
        if 0 < poly_degree(g) < poly_degree(f):
            _equal_degree_split(F, g, d, out)
            _equal_degree_split(F, poly_divmod(F, f, g)[0], d, out)
            return
    raise AssertionError("trace family failed to split an equal-degree product")


def poly_factor(F, p: tuple) -> list[tuple[tuple, int]]:
    """Monic irreducible factors of p with multiplicities (deterministic)."""
    out: list[tuple[tuple, int]] = []
    for s, mult in poly_squarefree_decomposition(F, p):
        # distinct-degree stage on the squarefree part s
        rest = s
        h = poly_x(F)
        d = 0
        while poly_degree(rest) > 0:
            d += 1
            if 2 * d > poly_degree(rest):
                out.append((rest, mult))
                break
            h = poly_pow_mod(F, h, F.order, rest)
            g = poly_gcd(F, rest, poly_add(F, h, poly_x(F)))
            if poly_degree(g) > 0:
                pieces: list[tuple] = []
                _equal_degree_split(F, g, d, pieces)
                out.extend((piece, mult) for piece in pieces)
                rest = poly_divmod(F, rest, g)[0]
                if poly_degree(rest) > 0:
                    h = poly_mod(F, h, rest)
    out.sort(key=lambda fm: (poly_degree(fm[0]), fm[0], fm[1]))
    return out


def poly_roots(F, p: tuple) -> list:
    """The distinct roots of p lying in F itself, sorted."""
    if not p:
        raise ValueError("every element is a root of the zero polynomial")
    # restrict to the product of (x - r) over in-field roots r
    xq = poly_pow_mod(F, poly_x(F), F.order, p)
    g = poly_gcd(F, p, poly_add(F, xq, poly_x(F)))
    roots = []
    pieces: list[tuple] = []
    if poly_degree(g) > 0:
        _equal_degree_split(F, g, 1, pieces)
    for lin in pieces:
        roots.append(lin[0])  # monic x + c has root c in characteristic 2
    return sorted(roots)


# ---------------------------------------------------------------------------
# quotient fields F[x]/(m) for irreducible m — used to reach beyond k = 16
# ---------------------------------------------------------------------------


class PolyQuotientField:
    """F[x]/(modulus) as a field-like object; elements are poly tuples over F.

    Only constructed with an irreducible modulus.  Provides the same
    protocol as FieldSpec (zero/one/order/add/mul/inv/pow/sqrt/f2_basis) so
    polynomial code above works over it unchanged.
    """

    def __init__(self, base, modulus: tuple):
        if poly_degree(modulus) < 1:
            raise ValueError("quotient modulus must be nonconstant")
        self.base = base
        self.modulus = poly_monic(base, modulus)
        self.degree = poly_degree(modulus)
        self.order = base.order ** self.degree
        self.zero: tuple = ()
        self.one: tuple = (base.one,)

    def lift(self, c) -> tuple:
        """The image of a base-field element."""
        return (c,) if c != self.base.zero else ()

    def check(self, a: tuple) -> tuple:
        return a

    def add(self, a: tuple, b: tuple) -> tuple:
        return poly_add(self.base, a, b)

    def mul(self, a: tuple, b: tuple) -> tuple:
        return poly_mod(self.base, poly_mul(self.base, a, b), self.modulus)

    def inv(self, a: tuple) -> tuple:
        if not a:
            raise ZeroDivisionError("inverse of zero in quotient field")
        F = self.base
        r0, r1 = self.modulus, a
        s0: tuple = ()
        s1: tuple = (F.one,)
        while r1:
            q, r = poly_divmod(F, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, poly_add(F, s0, poly_mul(F, q, s1))
        if poly_degree(r0) != 0:
            raise ValueError("quotient modulus is not irreducible")
        return poly_mod(F, poly_scale(F, s0, F.inv(r0[0])), self.modulus)

    def pow(self, a: tuple, e: int) -> tuple:
        if e < 0:
            a = self.inv(a)
            e = -e
        r = self.one
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def sqrt(self, a: tuple) -> tuple:
        bits = self.order.bit_length() - 1
        for _ in range(bits - 1):
            a = self.mul(a, a)
        return a

    def f2_basis(self) -> list[tuple]:
        out = []
        for j in range(self.degree):
            for b in self.base.f2_basis():
                out.append(poly_shift(self.base, self.lift(b), j))
        return out

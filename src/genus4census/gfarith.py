"""Arithmetic foundations for everything else in this package.

Polynomials over binary fields come in two encodings:

* packed F_2[x]: a polynomial is a Python int whose bit i is the
  coefficient of x^i, so xor is addition and shifting is multiplication
  by x (``gf2x_*`` functions);
* dense F[x] over a field-like F: tuples of elements, constant term first,
  no trailing zeros (``poly_*`` functions).

Both are instances of one ring interface (``Ring``: ``F2X`` and
``poly_ring(F)``), and everything above the basic arithmetic is written
once over it: powers and inverses modulo a polynomial, the squarefree
decomposition, Cantor-Zassenhaus factorization, roots and the residue
field F[x]/(pi) (``ResidueField``).  The ``gf2x_*`` and ``poly_*`` names
bind those algorithms to one encoding each.  Both encodings stay: the
packed one carries the F_2 work (the moduli's irreducibility tests, the
hyperelliptic branch points, the quadric chart decision's gcds), and the
tuples carry the generic routes over any field.  The census decides
hyperelliptic smoothness from a numpy table, not from either encoding.

The section "F_2-linear maps on bitmasks" is the F_2 linear algebra the
other modules share: apply a map given by its bit images (xor_apply),
tabulate it over every mask (xor_table), and row-reduce (f2_rref).

On top sit the fields F_{2^k} for k <= 16: elements are ints < 2^k holding
their polynomial-basis coordinates with respect to a fixed irreducible
modulus (``FieldSpec``), plus compatible subfield embeddings.  A
ResidueField over one of them reaches beyond k = 16.

All arithmetic here is exact; nothing floats.
"""
from __future__ import annotations

import functools
import operator
from array import array
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from ._value import Value, setfield

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


# ---------------------------------------------------------------------------
# F_2-linear maps on bitmasks
# ---------------------------------------------------------------------------
# A map is given by its bit images: images[b] is the image of the vector
# 1 << b.  An image is an int bitmask, or a numpy array that holds the
# images of many maps side by side.


def xor_apply(images: Sequence, v: int):
    """The image of the bitmask v: the XOR of images[b] over the set bits b of v."""
    acc = 0
    while v:
        low = v & -v
        acc ^= images[low.bit_length() - 1]
        v ^= low
    return acc


def xor_table(images) -> np.ndarray:
    """xor_apply(images, m) for every mask m < 2^len(images), as a numpy
    array indexed by m (shape (2^len(images),) + the shape of one image),
    doubled up bit by bit."""
    images = np.asarray(images)
    out = np.zeros((1 << len(images),) + images.shape[1:], images.dtype)
    for b in range(len(images)):
        out[1 << b:2 << b] = out[:1 << b] ^ images[b]
    return out


def f2_rref(rows: Sequence[int]) -> tuple[int, ...]:
    """Canonical reduced-row-echelon basis of the span, pivots descending;
    its length is the rank."""
    basis: dict[int, int] = {}
    for r in map(int, rows):
        while r:
            p = r.bit_length() - 1
            if p in basis:
                r ^= basis[p]
            else:
                basis[p] = r
                break
    for p in sorted(basis):
        for q in basis:
            if q > p and (basis[q] >> p) & 1:
                basis[q] ^= basis[p]
    return tuple(basis[p] for p in sorted(basis, reverse=True))


# ---------------------------------------------------------------------------
# dense univariate polynomials over a field-like object
# ---------------------------------------------------------------------------
# A "field-like" object provides zero/one/order, add/mul/inv/pow/sqrt and
# f2_basis(); FieldSpec does, and so does ResidueField below.  Polynomials
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


def _poly_even_sqrt(F, p: tuple) -> tuple:
    """For p with zero derivative (all exponents even), the s with s^2 = p."""
    return poly_from_coeffs(F, [F.sqrt(p[i]) for i in range(0, len(p), 2)])


# ---------------------------------------------------------------------------
# one ring interface over both encodings
# ---------------------------------------------------------------------------


class Ring(NamedTuple):
    """A polynomial ring F[x] over a binary field F, as the algorithms below
    use it.  Its zero is falsy, and equal-degree polynomials compare by
    their encoding, which orders factor lists."""

    zero: Any
    one: Any
    x: Any
    order: int  # the order of F
    basis: tuple  # an F_2-basis of F, as constant polynomials
    add: Callable
    mul: Callable
    divmod: Callable
    gcd: Callable  # monic; gcd(a, 0) is the monic associate of a
    degree: Callable  # -1 for the zero polynomial
    deriv: Callable
    sqrt: Callable  # the s with s^2 = a, for a with zero derivative
    shift: Callable  # (a, j) -> a x^j


F2X = Ring(0, 1, 2, 2, (1,), operator.xor, gf2x_mul, gf2x_divmod, gf2x_gcd, gf2x_degree,
           gf2x_deriv, gf2x_sqrt, operator.lshift)


@functools.lru_cache(maxsize=32)  # bounded: residue fields hash by identity
def poly_ring(F) -> Ring:
    """F[x] with polynomials as tuples over the field-like F."""
    p = functools.partial
    return Ring((), (F.one,), poly_x(F), F.order, tuple((b,) for b in F.f2_basis()),
                p(poly_add, F), p(poly_mul, F), p(poly_divmod, F), p(poly_gcd, F),
                poly_degree, p(poly_deriv, F), p(_poly_even_sqrt, F), p(poly_shift, F))


def _pow_mod(R: Ring, a, e: int, m):
    """a^e mod m (e an ordinary integer >= 0), squaring left to right."""
    if not e:
        return R.one
    a = R.divmod(a, m)[1]
    r = a
    for bit in bin(e)[3:]:
        r = R.divmod(R.mul(r, r), m)[1]
        if bit == "1":
            r = R.divmod(R.mul(r, a), m)[1]
    return r


def _inv_mod(R: Ring, a, m):
    """The inverse of a modulo m, reduced; a must be coprime to m.

    Extended Euclid keeps r_i = s_i a (mod m).  The Bezout coefficient s of
    the last nonzero remainder has degree below deg m, so it needs no
    reduction, only division by that (constant) remainder.
    """
    r0, r1 = m, a
    s0, s1 = R.zero, R.one
    while r1:
        q, r = R.divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, R.add(s0, R.mul(q, s1))
    if R.degree(r0) != 0:
        raise ZeroDivisionError("element is not invertible modulo the given polynomial")
    return s0 if r0 == R.one else R.divmod(s0, r0)[0]


def _squarefree_decomposition(R: Ring, p) -> list:
    """[(s_i, m_i)] with p = lc(p) prod s_i^{m_i}, the s_i squarefree, monic
    and pairwise coprime: Yun's loop, in characteristic 2."""
    p = R.gcd(p, R.zero)
    if R.degree(p) < 1:
        return []
    dp = R.deriv(p)
    if not dp:
        return [(s, 2 * m) for s, m in _squarefree_decomposition(R, R.sqrt(p))]
    out = []
    c = R.gcd(p, dp)
    w = R.divmod(p, c)[0]
    i = 1
    while R.degree(w) > 0:
        y = R.gcd(w, c)
        z = R.divmod(w, y)[0]
        if R.degree(z) > 0:
            out.append((z, i))
        c = R.divmod(c, y)[0]
        w = y
        i += 1
    if R.degree(c) > 0:
        # c is now a perfect square, so the recursion doubles multiplicities
        out.extend(_squarefree_decomposition(R, c))
    return out


def _equal_degree_split(R: Ring, f, d: int, out: list) -> None:
    """Split f, squarefree with all irreducible factors of degree d, into
    those factors (appended to out).

    Deterministic: for F = F_{2^m} the absolute trace t = sum_{i < md}
    alpha^(2^i) of alpha in F[x]/(f) is 0 or 1 modulo each factor, so
    gcd(f, t) collects the factors where it is 0.  The trace patterns of an
    F_2-basis span F_2^(number of factors), so some basis element b x^j
    has a pattern that is neither all 0 nor all 1, and splits f.
    """
    n = R.degree(f)
    if n == d:
        out.append(f)
        return
    length = (R.order.bit_length() - 1) * d
    for j in range(n):
        for b in R.basis:
            t = acc = R.divmod(R.shift(b, j), f)[1]
            for _ in range(length - 1):
                t = R.divmod(R.mul(t, t), f)[1]
                acc = R.add(acc, t)
            g = R.gcd(f, acc)
            if 0 < R.degree(g) < n:
                _equal_degree_split(R, g, d, out)
                _equal_degree_split(R, R.divmod(f, g)[0], d, out)
                return
    raise AssertionError("trace sweep failed to split an equal-degree product")


def factor(R: Ring, p) -> list:
    """Monic irreducible factors of p with multiplicities, sorted by degree
    then by encoding; p must be nonzero.  Squarefree decomposition, then the
    distinct-degree stage (gcd with x^(q^d) - x) and the equal-degree split."""
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    out = []
    for s, mult in _squarefree_decomposition(R, p):
        rest, h, d = s, R.x, 0
        while R.degree(rest) > 0:
            d += 1
            if 2 * d > R.degree(rest):
                out.append((rest, mult))
                break
            h = _pow_mod(R, h, R.order, rest)
            g = R.gcd(rest, R.add(h, R.x))
            if R.degree(g) > 0:
                pieces: list = []
                _equal_degree_split(R, g, d, pieces)
                out.extend((piece, mult) for piece in pieces)
                rest = R.divmod(rest, g)[0]
    out.sort(key=lambda fm: (R.degree(fm[0]), fm[0]))
    return out


def _linear_factors(R: Ring, p) -> list:
    """The monic linear factors x + c of p, one for each root c in F."""
    if not p:
        raise ValueError("every element is a root of the zero polynomial")
    g = R.gcd(p, R.add(_pow_mod(R, R.x, R.order, p), R.x))
    out: list = []
    if R.degree(g) > 0:
        _equal_degree_split(R, g, 1, out)
    return out


class ResidueField:
    """R/(modulus) for an irreducible modulus of a Ring R, as a field-like
    object whose elements are reduced ring elements.

    Provides the protocol of FieldSpec (zero/one/order/add/mul/inv/pow/
    sqrt/f2_basis/check), so the poly_* functions work over it unchanged.
    The modulus is not tested for irreducibility.
    """

    def __init__(self, R: Ring, modulus):
        if R.degree(modulus) < 1:
            raise ValueError("quotient modulus must be nonconstant")
        self.ring = R
        self.modulus = R.gcd(modulus, R.zero)
        self.degree = R.degree(modulus)
        self.order = R.order ** self.degree
        self.zero, self.one, self.add = R.zero, R.one, R.add

    def check(self, a):
        return a

    def mul(self, a, b):
        R = self.ring
        return R.divmod(R.mul(a, b), self.modulus)[1]

    def inv(self, a):
        return _inv_mod(self.ring, a, self.modulus)

    def pow(self, a, e: int):
        if e < 0:
            a, e = self.inv(a), -e
        return _pow_mod(self.ring, a, e, self.modulus)

    def sqrt(self, a):
        """a^(order / 2): squaring is the Frobenius, of order log2(order)."""
        for _ in range(self.order.bit_length() - 2):
            a = self.mul(a, a)
        return a

    def f2_basis(self) -> list:
        R = self.ring
        return [R.shift(b, j) for j in range(self.degree) for b in R.basis]


# -- the packed bindings ------------------------------------------------------


def gf2x_pow_mod(base: int, e: int, m: int) -> int:
    """base^e mod m for packed polynomials (e an ordinary integer >= 0)."""
    return _pow_mod(F2X, base, e, m)


def gf2x_factor(a: int) -> list[tuple[int, int]]:
    """Factor a packed polynomial into irreducibles, as (factor, multiplicity)
    pairs sorted by degree then by packed value.  a must be nonzero."""
    return factor(F2X, a)


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


# -- the tuple bindings -------------------------------------------------------


def poly_roots(F, p: tuple) -> list:
    """The distinct roots of p lying in F itself, sorted."""
    # monic x + c has root c in characteristic 2
    return sorted(lin[0] for lin in _linear_factors(poly_ring(F), p))


# ---------------------------------------------------------------------------
# the fields F_{2^k}, k <= 16
# ---------------------------------------------------------------------------

#: Smallest irreducible modulus of each degree with nonzero constant term,
#: as packed polynomials.  FieldSpec checks each one that field() builds.
SMALLEST_IRREDUCIBLE = {
    1: 0x3, 2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83, 8: 0x11B,
    9: 0x203, 10: 0x409, 11: 0x805, 12: 0x1009, 13: 0x201B, 14: 0x4021,
    15: 0x8003, 16: 0x1002B,
}

MAX_FIELD_BITS = 16


class FieldSpec(Value):
    """The field F_{2^k} presented as F_2[x]/(modulus).

    Elements are ints < 2^k; bit i is the coefficient of x^i.  The spec is
    supplied contextually to each operation rather than wrapped around every
    element.  Instances are hashable and interned via :func:`field`.
    """

    _fields = ("k", "modulus")
    __slots__ = (*_fields, "__dict__")  # __dict__ holds the cached _tables

    def __init__(self, k: int, modulus: int) -> None:
        setfield(self, "k", k)
        setfield(self, "modulus", modulus)
        if not 1 <= k <= MAX_FIELD_BITS:
            raise ValueError(f"field degree {k} outside supported range 1..{MAX_FIELD_BITS}")
        if gf2x_degree(modulus) != k:
            raise ValueError("modulus degree does not match field degree")
        if not gf2x_is_irreducible(modulus):
            raise ValueError(f"modulus {modulus:#x} is reducible")

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
    @functools.cached_property
    def _tables(self) -> tuple:
        """(log, exp, trace_mask), built on first use with gf2x_mul and
        gf2x_mod as the reference arithmetic.

        exp[i] = g^i for the least generator g of the multiplicative group,
        stored twice over (length 2(q - 1)) so that a sum of two logs needs
        no reduction; log is its inverse on the nonzero elements.  Bit i of
        trace_mask is Tr(x^i), so Tr(a) is the parity of a & trace_mask.
        Fields beyond 2^8 keep their tables as array('H').
        """
        k, m = self.k, self.modulus
        n = (1 << k) - 1
        g = next(g for g in range(1, n + 1)
                 if all(gf2x_pow_mod(g, n // p, m) != 1 for p in _prime_factors(n)))
        exp = [1] * (2 * n)
        for i in range(1, 2 * n):
            exp[i] = gf2x_mod(gf2x_mul(exp[i - 1], g), m)
        log = [0] * (n + 1)
        for i in range(n):
            log[exp[i]] = i
        trace_mask = 0
        for i in range(k):
            t = acc = 1 << i
            for _ in range(k - 1):
                t = gf2x_mod(gf2x_mul(t, t), m)
                acc ^= t
            trace_mask |= acc << i
        if k > 8:
            log, exp = array("H", log), array("H", exp)
        return log, exp, trace_mask

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        log, exp, _ = self._tables
        return exp[log[a] + log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{{2^{self.k}}}")
        log, exp, _ = self._tables
        return exp[(1 << self.k) - 1 - log[a]]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                return self.inv(a)
            return 0 if e else 1
        log, exp, _ = self._tables
        return exp[log[a] * e % ((1 << self.k) - 1)]

    def sqrt(self, a: int) -> int:
        """The unique square root: squaring is bijective in characteristic 2,
        and half of an odd log is taken after adding the odd group order."""
        if a == 0:
            return 0
        log, exp, _ = self._tables
        e = log[a]
        return exp[(e if e % 2 == 0 else e + (1 << self.k) - 1) >> 1]

    def trace(self, a: int) -> int:
        """Absolute trace down to F_2 (returns 0 or 1)."""
        return (a & self._tables[2]).bit_count() & 1


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


class Embedding(Value):
    """A ring embedding F_{2^a} -> F_{2^b} for a | b.

    Determined by sending the canonical generator of the small field to the
    smallest root (as an int) of its minimal polynomial in the big field.
    """

    __slots__ = _fields = ("sub", "sup", "generator_image")

    def __init__(self, sub: FieldSpec, sup: FieldSpec, generator_image: int) -> None:
        setfield(self, "sub", sub)
        setfield(self, "sup", sup)
        setfield(self, "generator_image", generator_image)

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

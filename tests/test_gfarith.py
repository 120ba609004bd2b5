"""Tests for field arithmetic and polynomials over binary fields."""
from __future__ import annotations

import random

import pytest

from genus4census import gfarith as gf


# ---------------------------------------------------------------------------
# packed F_2[x]
# ---------------------------------------------------------------------------


def test_gf2x_divmod_reconstructs():
    rng = random.Random(101)
    for _ in range(1000):
        a = rng.getrandbits(24)
        b = rng.getrandbits(12) | 1 << rng.randrange(1, 12)
        q, r = gf.gf2x_divmod(a, b)
        assert gf.gf2x_mul(q, b) ^ r == a
        assert gf.gf2x_degree(r) < gf.gf2x_degree(b)
    with pytest.raises(ZeroDivisionError):
        gf.gf2x_divmod(5, 0)


def test_gf2x_gcd_divides_and_matches_common_roots():
    rng = random.Random(102)
    for _ in range(500):
        a = rng.getrandbits(16)
        b = rng.getrandbits(16)
        if not a and not b:
            continue
        g = gf.gf2x_gcd(a, b)
        if a:
            assert gf.gf2x_mod(a, g) == 0
        if b:
            assert gf.gf2x_mod(b, g) == 0


def test_gf2x_deriv_product_rule():
    rng = random.Random(103)
    for _ in range(500):
        a = rng.getrandbits(20)
        b = rng.getrandbits(20)
        lhs = gf.gf2x_deriv(gf.gf2x_mul(a, b))
        rhs = gf.gf2x_mul(gf.gf2x_deriv(a), b) ^ gf.gf2x_mul(a, gf.gf2x_deriv(b))
        assert lhs == rhs


def test_irreducible_counts_match_necklace_formula():
    # number of monic irreducibles of degree k over F_2:
    # k=1:2, 2:1, 3:2, 4:3, 5:6, 6:9, 7:18
    expected = {1: 2, 2: 1, 3: 2, 4: 3, 5: 6, 6: 9, 7: 18}
    for k, want in expected.items():
        got = sum(1 for f in range(1 << k, 1 << (k + 1)) if gf.gf2x_is_irreducible(f))
        assert got == want, k


def test_modulus_table_is_smallest_irreducible_with_odd_constant():
    for k, m in gf.SMALLEST_IRREDUCIBLE.items():
        assert gf.gf2x_degree(m) == k
        assert m & 1
        assert gf.gf2x_is_irreducible(m)
        for f in range((1 << k) | 1, m, 2):
            assert not gf.gf2x_is_irreducible(f), (k, f)


def test_gf2x_invmod_exhaustive_small():
    for m in (0x7, 0xB, 0x13, 0x25):  # irreducible moduli
        for a in range(1, 1 << gf.gf2x_degree(m)):
            inv = gf.gf2x_invmod(a, m)
            assert gf.gf2x_mod(gf.gf2x_mul(a, inv), m) == 1
    # composite modulus: x^2+x = x(x+1), x not invertible but x^2+x+1 is
    with pytest.raises(ZeroDivisionError):
        gf.gf2x_invmod(0b10, 0b110)
    assert gf.gf2x_mod(gf.gf2x_mul(0b111, gf.gf2x_invmod(0b111, 0b110)), 0b110) == 1


def test_gf2x_sqrt_roundtrip():
    rng = random.Random(104)
    for _ in range(500):
        a = rng.getrandbits(20)
        assert gf.gf2x_sqrt(gf.gf2x_mul(a, a)) == a
    with pytest.raises(ValueError):
        gf.gf2x_sqrt(0b10)  # x is not a square


def test_gf2x_factor_reconstructs_and_is_irreducible():
    rng = random.Random(105)
    for _ in range(400):
        a = rng.getrandbits(rng.randrange(2, 22))
        if a == 0:
            continue
        fac = gf.gf2x_factor(a)
        prod = 1
        for f, m in fac:
            assert gf.gf2x_is_irreducible(f), (a, f)
            for _ in range(m):
                prod = gf.gf2x_mul(prod, f)
        assert prod == a, a
    assert gf.gf2x_factor(1) == []
    with pytest.raises(ValueError):
        gf.gf2x_factor(0)


def test_gf2x_factor_matches_generic_engine():
    # same answers as the tuple-based factorization over F_2
    F2 = gf.F2
    rng = random.Random(106)
    for _ in range(300):
        a = rng.getrandbits(rng.randrange(2, 18))
        if a == 0:
            continue
        want = sorted(
            (sum(c << i for i, c in enumerate(f)), m)
            for f, m in gf.poly_factor(F2, tuple((a >> i) & 1 for i in range(a.bit_length())))
        )
        assert sorted(gf.gf2x_factor(a)) == want, a


def test_gf2x_factor_known_values():
    # x^4 + x = x (x+1) (x^2+x+1)
    assert gf.gf2x_factor(0b10010) == [(0b10, 1), (0b11, 1), (0b111, 1)]
    # (x^2+x+1)^2 = x^4+x^2+1
    assert gf.gf2x_factor(0b10101) == [(0b111, 2)]
    # x^6+x^3 = x^3 (x^3+1) = x^3 (x+1) (x^2+x+1)
    assert gf.gf2x_factor(0b1001000) == [(0b10, 3), (0b11, 1), (0b111, 1)]


# ---------------------------------------------------------------------------
# FieldSpec
# ---------------------------------------------------------------------------


def _reference_mul(F, a, b):
    return gf.gf2x_mod(gf.gf2x_mul(a, b), F.modulus)


def _reference_pow(F, a, e):
    return gf.gf2x_pow_mod(a, e, F.modulus) if a else int(e == 0)


def _check_table_arithmetic(F, pairs, elements):
    """FieldSpec's log/antilog arithmetic against packed F_2[x] products
    reduced mod the modulus: mul on pairs; inv, pow, sqrt and trace (the
    sum of the 2^i-th powers) on elements."""
    n = F.order - 1
    for a, b in pairs:
        assert F.mul(a, b) == _reference_mul(F, a, b), (F.k, a, b)
    for a in elements:
        if a:
            assert _reference_mul(F, a, F.inv(a)) == 1, (F.k, a)
            assert F.pow(a, -3) == _reference_pow(F, F.inv(a), 3), (F.k, a)
        for e in (0, 1, 2, 7, n, n + 5):
            assert F.pow(a, e) == _reference_pow(F, a, e), (F.k, a, e)
        assert _reference_mul(F, F.sqrt(a), F.sqrt(a)) == a, (F.k, a)
        t = acc = a
        for _ in range(F.k - 1):
            t = _reference_mul(F, t, t)
            acc ^= t
        assert acc in (0, 1) and F.trace(a) == acc, (F.k, a)


def test_field_tables_match_gf2x_reference_exhaustive_small():
    for k in range(1, 9):
        F = gf.field(k)
        els = list(F.elements())
        _check_table_arithmetic(F, [(a, b) for a in els for b in els], els)


def test_field_tables_match_gf2x_reference_sampled_large():
    rng = random.Random(111)
    for k in range(9, 17):
        F = gf.field(k)
        els = [0, 1, F.order - 1] + [rng.randrange(F.order) for _ in range(300)]
        pairs = [(rng.randrange(F.order), rng.randrange(F.order)) for _ in range(2000)]
        _check_table_arithmetic(F, pairs + [(0, 5), (F.order - 1, 1)], els)


def test_field_tables_for_a_modulus_of_choice():
    # x^8 + x^4 + x^3 + x + 1 is not primitive: x has order 51, so the
    # tables must find another generator; x^4 + x^3 + 1 is a second modulus
    for k, modulus in ((8, 0x11B), (4, 0x19)):
        F = gf.FieldSpec(k, modulus)
        els = list(F.elements())
        _check_table_arithmetic(F, [(a, b) for a in els for b in els[::3]], els)


def test_field_pow_of_zero():
    F = gf.field(5)
    assert F.pow(0, 0) == 1 and F.pow(0, 3) == 0
    with pytest.raises(ZeroDivisionError):
        F.pow(0, -1)


def test_field_axioms_exhaustive_small():
    for k in (1, 2, 3):
        F = gf.field(k)
        els = list(F.elements())
        for a in els:
            for b in els:
                assert F.mul(a, b) == F.mul(b, a)
                for c in els:
                    assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
                    assert F.mul(a, b ^ c) == F.mul(a, b) ^ F.mul(a, c)


def test_field_axioms_random_large():
    rng = random.Random(104)
    for k in (4, 6, 8, 12, 16):
        F = gf.field(k)
        for _ in range(300):
            a, b, c = (rng.randrange(F.order) for _ in range(3))
            assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
            assert F.mul(a, b ^ c) == F.mul(a, b) ^ F.mul(a, c)
            assert F.mul(a, 1) == a and F.mul(a, 0) == 0


def test_field_inverses_exhaustive():
    for k in range(1, 9):
        F = gf.field(k)
        for a in range(1, F.order):
            assert F.mul(a, F.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        gf.field(4).inv(0)


def test_field_sqrt_exhaustive():
    for k in range(1, 9):
        F = gf.field(k)
        for a in F.elements():
            s = F.sqrt(a)
            assert F.mul(s, s) == a
            assert F.sqrt(F.mul(a, a)) == a


def test_field_sqrt_f4_example():
    # in F_4 = F_2[t]/(t^2+t+1): sqrt(t) = t+1 since (t+1)^2 = t^2+1 = t
    F4 = gf.field(2)
    assert F4.sqrt(0b10) == 0b11


def test_frobenius_additive_exhaustive():
    for k in range(1, 9):
        F = gf.field(k)
        sq = [F.mul(a, a) for a in F.elements()]
        for a in F.elements():
            for b in range(a):
                assert sq[a ^ b] == sq[a] ^ sq[b]


def test_trace_properties():
    for k in range(1, 9):
        F = gf.field(k)
        traces = [F.trace(a) for a in F.elements()]
        assert set(traces) <= {0, 1}
        assert traces.count(0) == F.order // 2
        for a in F.elements():
            assert F.trace(F.mul(a, a)) == traces[a]


def test_field_pow_matches_repeated_mul():
    rng = random.Random(105)
    F = gf.field(8)
    for _ in range(200):
        a = rng.randrange(1, 256)
        e = rng.randrange(0, 40)
        acc = 1
        for _ in range(e):
            acc = F.mul(acc, a)
        assert F.pow(a, e) == acc
        assert F.mul(F.pow(a, -e), acc) == 1 if e else True


def test_field_spec_validation():
    with pytest.raises(ValueError):
        gf.FieldSpec(4, 0b10101)  # x^4+x^2+1 = (x^2+x+1)^2 reducible
    with pytest.raises(ValueError):
        gf.FieldSpec(17, 1 << 17 | 0b101)
    with pytest.raises(ValueError):
        gf.field(0)


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------


def test_embedding_requires_subfield():
    with pytest.raises(ValueError):
        gf.embedding(gf.field(3), gf.field(8))


def test_embedding_is_ring_homomorphism_exhaustive():
    pairs = [(a, b) for a in range(1, 9) for b in range(a, 9) if b % a == 0]
    for a, b in pairs:
        sub, sup = gf.field(a), gf.field(b)
        e = gf.embedding(sub, sup)
        assert e(0) == 0 and e(1) == 1
        images = set()
        for x in sub.elements():
            images.add(e(x))
            for y in sub.elements():
                assert e(x ^ y) == e(x) ^ e(y)
                assert e(sub.mul(x, y)) == sup.mul(e(x), e(y))
        assert len(images) == sub.order  # injective


def test_embedding_image_is_the_unique_subfield():
    # the image of F_4 in F_16 must be the set of solutions of x^4 = x
    sub, sup = gf.field(2), gf.field(4)
    e = gf.embedding(sub, sup)
    image = {e(x) for x in sub.elements()}
    fixed = {x for x in sup.elements() if sup.pow(x, 4) == x}
    assert image == fixed


def test_embedding_identity():
    F = gf.field(4)
    e = gf.embedding(F, F)
    for x in F.elements():
        assert e(x) == x


def test_embedding_into_large_fields():
    rng = random.Random(106)
    for a, b in ((4, 16), (8, 16), (2, 16), (5, 15), (6, 12)):
        sub, sup = gf.field(a), gf.field(b)
        e = gf.embedding(sub, sup)
        for _ in range(300):
            x, y = rng.randrange(sub.order), rng.randrange(sub.order)
            assert e(sub.mul(x, y)) == sup.mul(e(x), e(y))
            assert e(x ^ y) == e(x) ^ e(y)


# ---------------------------------------------------------------------------
# polynomials over F_{2^k}
# ---------------------------------------------------------------------------


def _rand_poly(rng, F, maxdeg):
    return gf.poly_from_coeffs(F, [rng.randrange(F.order) for _ in range(rng.randrange(maxdeg + 2))])


def test_poly_divmod_reconstructs():
    rng = random.Random(107)
    for k in (1, 2, 4):
        F = gf.field(k)
        for _ in range(400):
            a = _rand_poly(rng, F, 8)
            b = _rand_poly(rng, F, 4)
            if not b:
                continue
            q, r = gf.poly_divmod(F, a, b)
            assert gf.poly_add(F, gf.poly_mul(F, q, b), r) == a
            assert gf.poly_degree(r) < gf.poly_degree(b)


def test_poly_gcd_properties():
    rng = random.Random(108)
    for k in (1, 2, 4):
        F = gf.field(k)
        for _ in range(300):
            a = _rand_poly(rng, F, 6)
            b = _rand_poly(rng, F, 6)
            if not a and not b:
                continue
            g = gf.poly_gcd(F, a, b)
            assert g and g[-1] == F.one or (not g and not a and not b)
            if a:
                assert not gf.poly_mod(F, a, g)
            if b:
                assert not gf.poly_mod(F, b, g)
            # gcd(fa, fb) = monic(f) * gcd(a, b) for f != 0
            f = _rand_poly(rng, F, 3)
            if f and (a or b):
                lhs = gf.poly_gcd(F, gf.poly_mul(F, f, a), gf.poly_mul(F, f, b))
                rhs = gf.poly_monic(F, gf.poly_mul(F, gf.poly_monic(F, f), g))
                assert lhs == rhs


def test_poly_eval_is_multiplicative():
    rng = random.Random(109)
    F = gf.field(4)
    for _ in range(300):
        a = _rand_poly(rng, F, 5)
        b = _rand_poly(rng, F, 5)
        x = rng.randrange(F.order)
        assert gf.poly_eval(F, gf.poly_mul(F, a, b), x) == F.mul(
            gf.poly_eval(F, a, x), gf.poly_eval(F, b, x)
        )


def test_poly_deriv_product_rule():
    rng = random.Random(110)
    F = gf.field(8)
    for _ in range(300):
        a = _rand_poly(rng, F, 6)
        b = _rand_poly(rng, F, 6)
        lhs = gf.poly_deriv(F, gf.poly_mul(F, a, b))
        rhs = gf.poly_add(
            F,
            gf.poly_mul(F, gf.poly_deriv(F, a), b),
            gf.poly_mul(F, a, gf.poly_deriv(F, b)),
        )
        assert lhs == rhs


def test_poly_roots_against_brute_force():
    rng = random.Random(111)
    for k in (1, 2, 3, 4, 6):
        F = gf.field(k)
        for _ in range(120):
            p = _rand_poly(rng, F, 6)
            if not p:
                continue
            brute = sorted(x for x in F.elements() if gf.poly_eval(F, p, x) == 0)
            assert gf.poly_roots(F, p) == brute


def test_poly_factor_reconstructs_and_is_irreducible():
    rng = random.Random(112)
    for k in (1, 2, 4):
        F = gf.field(k)
        for _ in range(150):
            p = _rand_poly(rng, F, 8)
            if gf.poly_degree(p) < 1:
                continue
            factors = gf.poly_factor(F, p)
            prod = (F.one,)
            for f, m in factors:
                assert f[-1] == F.one
                assert _is_irreducible_over(F, f)
                for _ in range(m):
                    prod = gf.poly_mul(F, prod, f)
            assert prod == gf.poly_monic(F, p)


def _is_irreducible_over(F, f):
    """Independent Rabin-style check over an arbitrary F_{2^m}."""
    n = gf.poly_degree(f)
    if n < 1:
        return False
    x = gf.poly_mod(F, gf.poly_x(F), f)
    xq = gf.poly_pow_mod(F, gf.poly_x(F), F.order**n, f)
    if xq != x:
        return False
    for p in {p for p in range(2, n + 1) if n % p == 0 and _is_prime(p)}:
        h = gf.poly_pow_mod(F, gf.poly_x(F), F.order ** (n // p), f)
        if gf.poly_degree(gf.poly_gcd(F, gf.poly_add(F, h, x), f)) != 0:
            return False
    return True


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_poly_squarefree_decomposition_reconstructs():
    rng = random.Random(113)
    F = gf.field(2)
    for _ in range(200):
        p = _rand_poly(rng, F, 10)
        if gf.poly_degree(p) < 1:
            continue
        parts = gf.poly_squarefree_decomposition(F, p)
        prod = (F.one,)
        for s, m in parts:
            # each part must be squarefree: gcd(s, s') constant
            d = gf.poly_deriv(F, s)
            assert d and gf.poly_degree(gf.poly_gcd(F, s, d)) == 0
            for _ in range(m):
                prod = gf.poly_mul(F, prod, s)
        assert prod == gf.poly_monic(F, p)


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------


def _sylvester_resultant(F, a, b):
    """Independent oracle: determinant of the Sylvester matrix."""
    m, n = gf.poly_degree(a), gf.poly_degree(b)
    if m < 0 and n < 0:
        raise ValueError
    if m < 0 or n < 0:
        return F.zero
    if m == 0 and n == 0:
        return F.one
    size = m + n
    rows = []
    for i in range(n):
        row = [F.zero] * size
        for j, c in enumerate(reversed(a)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [F.zero] * size
        for j, c in enumerate(reversed(b)):
            row[i + j] = c
        rows.append(row)
    # Gaussian elimination determinant (char 2: no sign bookkeeping)
    det = F.one
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col] != F.zero), None)
        if piv is None:
            return F.zero
        rows[col], rows[piv] = rows[piv], rows[col]
        det = F.mul(det, rows[col][col])
        inv = F.inv(rows[col][col])
        for r in range(col + 1, size):
            if rows[r][col] != F.zero:
                factor = F.mul(rows[r][col], inv)
                for cc in range(col, size):
                    rows[r][cc] = F.add(rows[r][cc], F.mul(factor, rows[col][cc]))
    return det


def test_resultant_spec_examples():
    F2 = gf.F2
    x = gf.poly_from_coeffs(F2, [0, 1])
    assert gf.poly_resultant(F2, x, gf.poly_from_coeffs(F2, [1, 1])) == 1
    assert gf.poly_resultant(F2, gf.poly_from_coeffs(F2, [0, 1, 1]), x) == 0
    a = gf.poly_from_coeffs(F2, [1, 1, 1])
    b = gf.poly_from_coeffs(F2, [1, 1, 0, 1])
    # oracle: no common root in F_64 (the splitting field of both)
    F64 = gf.field(6)
    for t in F64.elements():
        va = gf.poly_eval(F64, _lift(F2, F64, a), t)
        vb = gf.poly_eval(F64, _lift(F2, F64, b), t)
        assert va != 0 or vb != 0
    assert gf.poly_resultant(F2, a, b) != 0
    with pytest.raises(ValueError):
        gf.poly_resultant(F2, (), ())
    assert gf.poly_resultant(F2, a, ()) == 0


def _lift(sub, sup, p):
    e = gf.embedding(sub, sup)
    return gf.poly_from_coeffs(sup, [e(c) for c in p])


def test_resultant_matches_sylvester_determinant():
    rng = random.Random(114)
    for k in (1, 2, 4):
        F = gf.field(k)
        for _ in range(250):
            a = _rand_poly(rng, F, 6)
            b = _rand_poly(rng, F, 6)
            if not a and not b:
                continue
            if not a or not b:
                assert gf.poly_resultant(F, a, b) == F.zero
                continue
            assert gf.poly_resultant(F, a, b) == _sylvester_resultant(F, a, b)


def test_resultant_zero_iff_common_factor():
    rng = random.Random(115)
    F = gf.field(2)
    for _ in range(400):
        a = _rand_poly(rng, F, 6)
        b = _rand_poly(rng, F, 6)
        if not a or not b:
            continue
        r = gf.poly_resultant(F, a, b)
        g = gf.poly_gcd(F, a, b)
        if gf.poly_degree(a) == 0 or gf.poly_degree(b) == 0:
            continue  # resultant of a constant is a power of it, gcd constant
        assert (r == F.zero) == (gf.poly_degree(g) > 0)


def test_resultant_multiplicative():
    rng = random.Random(116)
    F = gf.field(4)
    for _ in range(200):
        a = _rand_poly(rng, F, 4)
        b = _rand_poly(rng, F, 3)
        c = _rand_poly(rng, F, 3)
        if not a or not b or not c:
            continue
        lhs = gf.poly_resultant(F, a, gf.poly_mul(F, b, c))
        rhs = F.mul(gf.poly_resultant(F, a, b), gf.poly_resultant(F, a, c))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# quotient fields
# ---------------------------------------------------------------------------


def test_quotient_field_is_a_field():
    rng = random.Random(117)
    F4 = gf.field(2)
    # x^3 + x + 1 stays irreducible over F_4 (degree 3 coprime to 2)
    m = gf.poly_from_coeffs(F4, [1, 1, 0, 1])
    Q = gf.PolyQuotientField(F4, m)
    assert Q.order == 64
    els = [gf.poly_from_coeffs(F4, [rng.randrange(4) for _ in range(3)]) for _ in range(40)]
    for a in els:
        if a:
            assert Q.mul(a, Q.inv(a)) == Q.one
        s = Q.sqrt(a)
        assert Q.mul(s, s) == a
        for b in els[:10]:
            assert Q.mul(a, b) == Q.mul(b, a)
            for c in els[:5]:
                assert Q.mul(a, Q.mul(b, c)) == Q.mul(Q.mul(a, b), c)
                assert Q.mul(a, Q.add(b, c)) == Q.add(Q.mul(a, b), Q.mul(a, c))


def test_quotient_field_roots_of_modulus():
    F2 = gf.F2
    m = gf.poly_from_coeffs(F2, [1, 1, 0, 0, 1])  # x^4+x+1 irreducible
    Q = gf.PolyQuotientField(F2, m)
    lifted = gf.poly_from_coeffs(Q, [Q.lift(c) for c in m])
    roots = gf.poly_roots(Q, lifted)
    assert len(roots) == 4  # splits completely in its own quotient

"""Genus-4 curve models over binary fields, of the kinds described in kinds.

* quadric-cubic (ns and cone): the canonical model of a non-hyperelliptic
  genus-4 curve is the intersection of a quadric surface and a cubic
  surface in P^3; in characteristic 2 the quadric is X*Y + Z*T (smooth) or
  X*Y + T^2 (a cone).  The cubic is stored as 20 coefficients in MONOMIALS3
  order, the four monomials divisible by the quadric's extra monomial
  folded into X*Y-multiples at construction time, so exactly 16 are free;
  over F_2 they pack into a 16-bit mask.  Smoothness is decided on two
  affine charts, which cover the quadric up to its distinguished points,
  checked by their coefficient patterns; a chart by gcds of its
  u-polynomials, written once over a gfarith Ring.  Over F_2 a scan of the
  points over F_2..F_16, one per Frobenius orbit, settles most masks
  first, and one chart is left, decided on packed polynomials.

* hyperelliptic: y^2 + h(x) y = f(x) with deg h <= 5, deg f <= 10,
  max(2 deg h, deg f) in {9, 10}, h != 0.  The smooth model lives in the
  weighted projective plane P(1, 5, 1); the chart at infinity is
  x = 1/u, y = w/u^5.

The functions here take a kind's name and apply one rule to its
description.  All coefficient arithmetic is exact, through
gfarith.FieldSpec.  Points over extension fields of composite degree
beyond F_{2^16} are out of range for concrete coordinates, but smoothness
decisions never need them: the chart analysis takes only gcds and
products of polynomials in u, so it names no singular point and builds no
residue field.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce
from types import SimpleNamespace

import numpy as np

from ._value import Value, setfield
from .gfarith import (
    F2,
    F2X,
    FieldSpec,
    Ring,
    embedding,
    field,
    gf2x_mul,
    poly_add,
    poly_degree,
    poly_deriv,
    poly_eval,
    poly_from_coeffs,
    poly_gcd,
    poly_mul,
    poly_ring,
    poly_roots,
    poly_scale,
    xor_apply,
    xor_table,
)
from .kinds import _INDEX3, DESCRIPTIONS, MONOMIALS2, MONOMIALS3, quadric

__all__ = [
    "MONOMIALS3",
    "MONOMIALS2",
    "QUADRIC_KINDS",
    "quadric_coeffs",
    "reduce_cubic",
    "QuadricCubicCurve",
    "quadric_curve",
    "quadric_curve_from_mask",
    "HyperellipticCurve",
    "hyperelliptic_from_masks",
    "parse_curve_id",
    "eval_quadric",
    "eval_cubic",
    "quadric_gradient",
    "biv_from_rows",
    "chart_polynomial",
    "ProjectiveTransform",
    "apply_transform",
    "quadric_points",
    "count_points",
    "SmoothnessResult",
    "is_smooth",
    "hyperelliptic_transformed",
    "gl2_f2",
    "quadric_stabilizer_f2",
    "aut_order_f2",
    "jacobian_aut_order",
]

_INDEX2 = {e: i for i, e in enumerate(MONOMIALS2)}

QUADRIC_KINDS = tuple(name for name, kind in DESCRIPTIONS.items() if kind.quadric)


def quadric_coeffs(kind: str) -> tuple[int, ...]:
    """The quadric's form as a coefficient vector (valid over any field)."""
    return tuple(int(e in quadric(kind).form) for e in MONOMIALS2)


def reduce_cubic(kind: str, spec: FieldSpec, coeffs) -> tuple[int, ...]:
    """Fold the four quadric-divisible monomials into their X*Y partners."""
    out = list(coeffs)
    for src, dst in quadric(kind).reduction.items():
        if out[src]:
            out[dst] = spec.add(out[dst], out[src])
            out[src] = 0
    return tuple(out)


# ---------------------------------------------------------------------------
# the curve types
# ---------------------------------------------------------------------------


class QuadricCubicCurve(Value):
    """A cubic section of one of the two quadric normal forms.

    coeffs has one entry per MONOMIALS3 slot and is stored reduced: the
    entries at reducible slots are zero.  Use quadric_curve to build one
    from an arbitrary coefficient vector.
    """

    __slots__ = _fields = ("kind", "spec", "coeffs")

    def __init__(self, kind: str, spec: FieldSpec, coeffs: tuple[int, ...]):
        setfield(self, "kind", kind)
        setfield(self, "spec", spec)
        setfield(self, "coeffs", coeffs)
        reduction = quadric(kind).reduction
        if len(coeffs) != len(MONOMIALS3):
            raise ValueError("a cubic needs one coefficient per degree-3 monomial")
        for c in coeffs:
            spec.check(c)
        for src in reduction:
            if coeffs[src]:
                raise ValueError("coefficients are not reduced modulo the quadric")

    @property
    def mask(self) -> int:
        if self.spec.k != 1:
            raise ValueError("bitmask encoding is defined over F_2 only")
        m = 0
        for bit, idx in enumerate(quadric(self.kind).kept):
            if self.coeffs[idx]:
                m |= 1 << bit
        return m

    @property
    def curve_id(self) -> str:
        return f"{self.kind};c=0x{self.mask:04x}"


def quadric_curve(kind: str, spec: FieldSpec, coeffs) -> QuadricCubicCurve:
    return QuadricCubicCurve(kind, spec, reduce_cubic(kind, spec, coeffs))


def quadric_curve_from_mask(kind: str, mask: int) -> QuadricCubicCurve:
    kept = quadric(kind).kept
    if not 0 <= mask < 1 << 16:
        raise ValueError("cubic masks have 16 bits")
    coeffs = [0] * len(MONOMIALS3)
    for bit, idx in enumerate(kept):
        coeffs[idx] = (mask >> bit) & 1
    return QuadricCubicCurve(kind, F2, tuple(coeffs))


class HyperellipticCurve(Value):
    """y^2 + h(x) y = f(x), the standard genus-4 hyperelliptic shape."""

    __slots__ = _fields = ("spec", "h", "f")
    kind = "hyp"

    def __init__(self, spec: FieldSpec, h: tuple[int, ...], f: tuple[int, ...]):
        setfield(self, "spec", spec)
        setfield(self, "h", h)
        setfield(self, "f", f)
        for c in h + f:
            spec.check(c)
        if (h and not h[-1]) or (f and not f[-1]):
            raise ValueError("polynomials must be normalized (no trailing zeros)")
        if not h:
            raise ValueError("h must be nonzero: y^2 = f(x) is inseparable in char 2")
        dh, df = poly_degree(h), poly_degree(f)
        if dh > 5 or df > 10:
            raise ValueError("degree bounds: deg h <= 5, deg f <= 10")
        if max(2 * dh, df) not in (9, 10):
            raise ValueError("genus-4 shape needs max(2 deg h, deg f) in {9, 10}")

    @property
    def masks(self) -> tuple[int, int]:
        if self.spec.k != 1:
            raise ValueError("bitmask encoding is defined over F_2 only")
        hm = sum(c << i for i, c in enumerate(self.h))
        fm = sum(c << i for i, c in enumerate(self.f))
        return hm, fm

    @property
    def curve_id(self) -> str:
        hm, fm = self.masks
        return f"hyp;h=0x{hm:02x};f=0x{fm:03x}"


def hyperelliptic_from_masks(h_mask: int, f_mask: int) -> HyperellipticCurve:
    h = tuple((h_mask >> i) & 1 for i in range(h_mask.bit_length()))
    f = tuple((f_mask >> i) & 1 for i in range(f_mask.bit_length()))
    return HyperellipticCurve(F2, h, f)


def parse_curve_id(s: str):
    """Inverse of the curve_id properties (census encodings, base field F_2).
    Only a model's own curve_id is accepted, so no model has two ids."""
    name, *fields = s.split(";")
    try:
        kind = DESCRIPTIONS.get(name)  # a quadric id has one field, c=..., a hyp id two, h=... and f=...
        if kind is None or len(fields) != (1 if kind.quadric else 2):
            raise ValueError("not a census id")
        masks = [int(field[2:], 16) for field in fields]
        curve = quadric_curve_from_mask(name, *masks) if kind.quadric else hyperelliptic_from_masks(*masks)
        if curve.curve_id != s:
            raise ValueError(f"the model's own id is {curve.curve_id!r}")
    except ValueError as exc:
        raise ValueError(f"bad curve id {s!r}: {exc}") from None
    return curve


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _powers(spec, c, n: int) -> list:
    out = [spec.one]
    for _ in range(n):
        out.append(spec.mul(out[-1], c))
    return out


def eval_cubic(spec, coeffs, point):
    """Value of the cubic at a point; spec may also be a quotient field."""
    pw = [_powers(spec, c, 3) for c in point]
    acc = spec.zero
    for c, e in zip(coeffs, MONOMIALS3):
        if c:
            m = spec.mul(spec.mul(pw[0][e[0]], pw[1][e[1]]), spec.mul(pw[2][e[2]], pw[3][e[3]]))
            acc = spec.add(acc, spec.mul(c, m))
    return acc


def _form_value(spec, monomials, point):
    """The sum of monomials (exponent tuples of degree >= 1) at point."""
    acc = spec.zero
    for e in monomials:
        acc = spec.add(acc, reduce(spec.mul, [c for c, n in zip(point, e) for _ in range(n)]))
    return acc


def eval_quadric(kind: str, spec, point):
    return _form_value(spec, quadric(kind).form, point)


def quadric_gradient(kind: str, spec, point) -> tuple:
    """The partials of the quadric's form at point.  In characteristic 2 the
    partial in X_v of a monomial is the monomial with X_v lowered by one
    when X_v has an odd exponent, and 0 otherwise (d(T^2)/dT = 2T = 0)."""
    form = quadric(kind).form
    return tuple(_form_value(spec, [tuple(n - (w == v) for w, n in enumerate(e)) for e in form if e[v] & 1], point)
                 for v in range(4))


# ---------------------------------------------------------------------------
# projective substitutions
# ---------------------------------------------------------------------------


def _mat_inverse(spec: FieldSpec, rows):
    n = len(rows)
    aug = [list(rows[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = spec.inv(aug[col][col])
        aug[col] = [spec.mul(inv, c) for c in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [spec.add(a, spec.mul(factor, b)) for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


class ProjectiveTransform(Value):
    """An invertible linear substitution: row i is the form replacing
    variable i, so applying s then t composes as the matrix product s*t."""

    __slots__ = _fields = ("spec", "rows")

    def __init__(self, spec: FieldSpec, rows: tuple[tuple[int, int, int, int], ...]):
        setfield(self, "spec", spec)
        setfield(self, "rows", rows)
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("a projective substitution needs a 4x4 matrix")
        for r in rows:
            for c in r:
                spec.check(c)
        if _mat_inverse(spec, rows) is None:
            raise ValueError("substitution matrix is singular")

    def compose(self, other: "ProjectiveTransform") -> "ProjectiveTransform":
        if other.spec != self.spec:
            raise ValueError("cannot compose substitutions over different fields")
        F = self.spec
        rows = tuple(
            tuple(
                _xor_sum(F, (F.mul(self.rows[i][k], other.rows[k][j]) for k in range(4)))
                for j in range(4)
            )
            for i in range(4)
        )
        return ProjectiveTransform(F, rows)

    def inverse(self) -> "ProjectiveTransform":
        inv = _mat_inverse(self.spec, self.rows)
        assert inv is not None
        return ProjectiveTransform(self.spec, inv)


def _xor_sum(spec: FieldSpec, items) -> int:
    acc = 0
    for x in items:
        acc = spec.add(acc, x)
    return acc


def _expand_linear_product(spec: FieldSpec, forms) -> dict[tuple, int]:
    """Multiply out a product of linear forms into a monomial dict."""
    acc = {(0, 0, 0, 0): 1}
    for form in forms:
        nxt: dict[tuple, int] = {}
        for e, c in acc.items():
            if not c:
                continue
            for v in range(4):
                cv = form[v]
                if not cv:
                    continue
                e2 = tuple(e[w] + (1 if w == v else 0) for w in range(4))
                nxt[e2] = spec.add(nxt.get(e2, 0), spec.mul(c, cv))
        acc = nxt
    return acc


def substitute_quadric(spec: FieldSpec, q10, rows) -> tuple[int, ...]:
    out = [0] * len(MONOMIALS2)
    for c, e in zip(q10, MONOMIALS2):
        if not c:
            continue
        forms = []
        for v in range(4):
            forms.extend([rows[v]] * e[v])
        for e2, c2 in _expand_linear_product(spec, forms).items():
            out[_INDEX2[e2]] = spec.add(out[_INDEX2[e2]], spec.mul(c, c2))
    return tuple(out)


def substitute_cubic(spec: FieldSpec, c20, rows) -> tuple[int, ...]:
    out = [0] * len(MONOMIALS3)
    for c, e in zip(c20, MONOMIALS3):
        if not c:
            continue
        forms = []
        for v in range(4):
            forms.extend([rows[v]] * e[v])
        for e2, c2 in _expand_linear_product(spec, forms).items():
            out[_INDEX3[e2]] = spec.add(out[_INDEX3[e2]], spec.mul(c, c2))
    return tuple(out)


def apply_transform(curve: QuadricCubicCurve, t: ProjectiveTransform) -> QuadricCubicCurve:
    """Transport the curve along a substitution that preserves its quadric
    (up to a nonzero scalar); the cubic is re-reduced afterwards."""
    if t.spec != curve.spec:
        raise ValueError("substitution and curve live over different fields")
    spec = curve.spec
    q = quadric_coeffs(curve.kind)
    qt = substitute_quadric(spec, q, t.rows)
    lam = None
    for qc, qtc in zip(q, qt):
        if qc:
            lam = qtc
            break
    if not lam or any(qtc != spec.mul(lam, qc) for qc, qtc in zip(q, qt)):
        raise ValueError("substitution does not preserve the quadric")
    return quadric_curve(curve.kind, spec, substitute_cubic(spec, curve.coeffs, t.rows))


# ---------------------------------------------------------------------------
# point counting
# ---------------------------------------------------------------------------


def _extension_for(curve, n: int):
    kk = curve.spec.k * n
    if kk > 16:
        raise ValueError(f"point counts over F_2^{kk} are out of range (max 2^16)")
    sup = field(kk)
    return sup, embedding(curve.spec, sup)


def _projective_line(spec: FieldSpec):
    for a in spec.elements():
        yield (1, a)
    yield (0, 1)


def quadric_points(kind: str, spec: FieldSpec) -> list[tuple[int, int, int, int]]:
    """Every point of the quadric over spec, each once, in an order that fixes
    the scan's columns and witnesses: by its parametrization, segre (ns) is
    P^1 x P^1 via (X, Y, Z, T) = (x z, y t, y z, x t); conic (the cone) is
    (1 : u^2 : v : u), then (0 : 1 : v : 0), then the vertex (0 : 0 : 1 : 0).
    """
    if quadric(kind).points == "segre":
        line = list(_projective_line(spec))
        return [(spec.mul(x, z), spec.mul(y, t), spec.mul(y, z), spec.mul(x, t))
                for x, y in line for z, t in line]
    pts = [(1, spec.mul(u, u), v, u) for u in spec.elements() for v in spec.elements()]
    pts += [(0, 1, v, 0) for v in spec.elements()]
    pts.append((0, 0, 1, 0))
    return pts


def _count_quadric_points(curve: QuadricCubicCurve, n: int) -> int:
    sup, emb = _extension_for(curve, n)
    co = tuple(emb(c) for c in curve.coeffs)
    return sum(1 for pt in quadric_points(curve.kind, sup) if not eval_cubic(sup, co, pt))


# ---------------------------------------------------------------------------
# the quadric scan: every F_2 cubic mask evaluated from byte tables
# ---------------------------------------------------------------------------

_MINOR_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _array_mul(K: FieldSpec):
    """Elementwise product in K of integer arrays, read from K's log/antilog
    tables (the ones FieldSpec.mul reads)."""
    log, exp = (np.asarray(t, np.intp) for t in K._tables[:2])
    return lambda a, b: np.where((a != 0) & (b != 0), exp[log[a] + log[b]], 0)


@lru_cache(maxsize=None)
def _quadric_tables(kind: str):
    """(lo, hi, bounds, points): cubic value and Jacobian minors at one
    point of each Frobenius orbit on the quadric over F_2..F_16, for every
    cubic mask.

    A model is defined over F_2, so a point lies on it, or is singular on
    it, exactly when its conjugates do, and squaring the coordinates maps
    each point of quadric_points to another.  So a column is the first
    member, in quadric_points order, of each orbit of exact degree d:
    bounds[d-1] to bounds[d] are the degree-d columns in that order, and
    points[col] is (d, point).  For one cubic monomial, a column holds one
    uint32 word of seven nibbles: its value (bits 0-3) and the six 2x2
    minors of (grad monomial; grad quadric) in _MINOR_PAIRS order (bits
    4-27).  All seven are F_2-linear in the cubic coefficients, so the
    words of mask m are lo[m & 255] ^ hi[m >> 8], where lo and hi XOR the
    words of the low and high eight mask bits.  A zero word is a point on
    the curve where the Jacobian drops rank: a singular point, and
    conversely; a zero low nibble is a point on the curve.
    """
    exps = np.array([MONOMIALS3[idx] for idx in quadric(kind).kept])  # (16, 4)
    shifts = np.array([[12], [8], [4], [0]])  # a point's coordinates as one 16-bit key
    points, bounds, words = [], [0], []
    for d in (1, 2, 3, 4):
        K = field(d)
        pts = quadric_points(kind, K)
        mul = _array_mul(K)
        coords = np.array(pts, np.intp).T  # (4, n)
        sq = mul(coords, coords)
        # Frobenius permutes the points (found by their 16-bit keys); keep
        # each point that precedes its d - 1 other conjugates
        where = np.zeros(1 << 16, np.intp)
        where[(coords << shifts).sum(axis=0)] = np.arange(len(pts))
        frob = image = where[(sq << shifts).sum(axis=0)]
        keep = np.ones(len(pts), bool)
        for _ in range(d - 1):
            keep &= image > np.arange(len(pts))
            image = frob[image]
        keep = np.flatnonzero(keep)
        points += [(d, pts[i]) for i in keep.tolist()]
        bounds.append(len(points))
        coords, sq = coords[:, keep], sq[:, keep]
        pw = np.stack([np.ones_like(coords), coords, sq, mul(sq, coords)], axis=1)  # (4, exponent, n)
        f = pw[np.arange(4), exps]  # (16 bits, 4 coordinates, n)
        # partial in v: the odd exponent e[v] drops by one, the rest stay
        # (an even e[v] reads column -1, which the where discards)
        cp = [np.where((exps[:, v] & 1)[:, None],
                       mul(mul(pw[v, exps[:, v] - 1], f[:, (v + 1) % 4]),
                           mul(f[:, (v + 2) % 4], f[:, (v + 3) % 4])), 0)
              for v in range(4)]
        qg = quadric_gradient(kind, SimpleNamespace(zero=0, add=np.bitwise_xor, mul=mul), tuple(coords))
        word = mul(mul(f[:, 0], f[:, 1]), mul(f[:, 2], f[:, 3]))
        for n, (i, j) in enumerate(_MINOR_PAIRS, start=1):
            word |= (mul(cp[i], qg[j]) ^ mul(cp[j], qg[i])) << 4 * n
        words.append(word)
    bits = np.concatenate(words, axis=1).astype(np.uint32)
    return xor_table(bits[:8]), xor_table(bits[8:]), tuple(bounds), tuple(points)


# N_n = sum over d | n of d times the on-curve orbits of degree d (row d, column n)
_ORBIT_WEIGHTS = np.array([[1, 1, 1, 1], [0, 2, 0, 2], [0, 0, 3, 0], [0, 0, 0, 4]], np.float32)


def _quadric_scan(kind: str, m0: int, m1: int):
    """Counts and rational-singularity data for the masks m0 <= m < m1.

    The masks of a few high bytes are evaluated as one numpy block of
    packed words, one per Frobenius orbit, and a mask's counts are its
    on-curve columns times their _ORBIT_WEIGHTS rows (a float32 product,
    exact on these small integers).  Returns (counts, flagged,
    witness_col), indexed by mask - m0; witness_col is the first zero word
    of a flagged mask, which is the first singular point of quadric_points
    over the least field that has one (its conjugates come after it).
    """
    lo, hi, bounds, _ = _quadric_tables(kind)
    weights = _ORBIT_WEIGHTS[np.repeat(np.arange(4), np.diff(bounds))]  # (columns, n)
    n = m1 - m0
    counts = np.zeros((n, 4), np.int16)
    flagged = np.zeros(n, np.bool_)
    witness = np.zeros(n, np.int32)
    step = 256 * 404 // lo.size  # high bytes per block: at most 256 masks x 404 points of words
    a = m0
    while a < m1:
        h = a >> 8
        b = min((h + step) << 8, m1)
        cur = (hi[h:((b - 1) >> 8) + 1, None] ^ lo).reshape(-1, lo.shape[1])[a - (h << 8):b - (h << 8)]
        dead = cur == 0
        rows = slice(a - m0, b - m0)
        witness[rows] = first = dead.argmax(axis=1)
        flagged[rows] = dead[np.arange(b - a), first]
        counts[rows] = ((cur & 15) == 0).astype(np.float32) @ weights
        a = b
    return counts, flagged, witness


def _scan_singular(kind: str, witness_col: int) -> SmoothnessResult:
    """Result for a mask the scan flags: its first singular point, over the
    smallest field that has one."""
    d, pt = _quadric_tables(kind)[3][witness_col]
    return SmoothnessResult(False, (d, pt), f"rational singular point over F_{2 ** d}")


def _count_hyperelliptic_points(curve: HyperellipticCurve, n: int) -> int:
    sup, emb = _extension_for(curve, n)
    h = tuple(emb(c) for c in curve.h)
    f = tuple(emb(c) for c in curve.f)
    total = 0
    for x in sup.elements():
        hx = poly_eval(sup, h, x)
        if hx:
            # y^2 + hx y = fx has 2 or 0 roots, by the Artin-Schreier trace
            fx = poly_eval(sup, f, x)
            w = sup.mul(fx, sup.inv(sup.mul(hx, hx)))
            total += 2 if sup.trace(w) == 0 else 0
        else:
            total += 1
    h5 = h[5] if len(h) > 5 else 0
    f10 = f[10] if len(f) > 10 else 0
    if h5:
        w = sup.mul(f10, sup.inv(sup.mul(h5, h5)))
        total += 2 if sup.trace(w) == 0 else 0
    else:
        total += 1
    return total


def count_points(curve, n: int = 1, raw: bool = False) -> int:
    """Rational points over the degree-n extension of the base field.

    raw=True skips the smoothness requirement and counts points of the
    possibly singular model (solutions of the defining equations in the
    same charts).
    """
    if n < 1:
        raise ValueError("extension degree must be positive")
    if not raw:
        res = is_smooth(curve)
        if not res.smooth:
            raise ValueError(f"curve is singular ({res.note}); pass raw=True to count anyway")
    if isinstance(curve, QuadricCubicCurve):
        return _count_quadric_points(curve, n)
    if isinstance(curve, HyperellipticCurve):
        return _count_hyperelliptic_points(curve, n)
    raise TypeError(f"not a curve: {curve!r}")


# ---------------------------------------------------------------------------
# smoothness
# ---------------------------------------------------------------------------


class SmoothnessResult(Value):
    __slots__ = _fields = ("smooth", "witness", "note")

    def __init__(self, smooth: bool, witness: tuple | None = None, note: str = ""):
        setfield(self, "smooth", smooth)
        setfield(self, "witness", witness)  # (field degree over F_2, coordinates)
        setfield(self, "note", note)

    def __bool__(self) -> bool:
        return self.smooth


def biv_from_rows(F, rows) -> tuple:
    """A bivariate polynomial in F[u][v] from per-v-degree coefficient
    sequences: a tuple of u-polynomials (gfarith tuples), the coefficients
    of v^0, v^1, ..., with no trailing zero entries."""
    f = [poly_from_coeffs(F, r) for r in rows]
    while f and not f[-1]:
        f.pop()
    return tuple(f)


def chart_polynomial(curve: QuadricCubicCurve, chart: str):
    """The cubic pulled back to one affine chart of its quadric (kinds.Kind.charts)."""
    spec = curve.spec
    cells = quadric(curve.kind).cells[chart]
    rows = [[0] * 7 for _ in range(4)]
    for idx, c in enumerate(curve.coeffs):
        if c:
            v_e, u_e = cells[idx]
            rows[v_e][u_e] = spec.add(rows[v_e][u_e], c)
    return biv_from_rows(spec, rows)


def _distinguished_checks(curve: QuadricCubicCurve) -> SmoothnessResult | None:
    """The first distinguished point (kinds.Kind.distinguished) where the
    cubic's coefficients of the point's monomials all vanish, a singular one."""
    for point, monomials, note in quadric(curve.kind).distinguished:
        if not any(curve.coeffs[_INDEX3[e]] for e in monomials):
            return SmoothnessResult(False, (curve.spec.k, point), note)
    return None


def _quadric_smooth_generic(curve: QuadricCubicCurve) -> SmoothnessResult:
    """Smoothness over any base field F_{2^k}.  Every point of the quadric
    lies in one of the two affine charts of its cover or is a distinguished
    point (X = Y = 0).  The distinguished points are checked by their
    coefficient patterns, and each chart by the gcds of _chart_singular_fibre
    over F_{2^k}[u], the decision the F_2 route makes on packed polynomials.
    Its reference is elimination.exists_common_zero on the chart polynomial
    and its two partials, which the tests compare it against.
    """
    res = _distinguished_checks(curve)
    if res is not None:
        return res
    R = poly_ring(curve.spec)
    for chart in quadric(curve.kind).cover:
        if _chart_singular_fibre(R, chart_polynomial(curve, chart)):
            return SmoothnessResult(False, None, "singular point inside the affine chart")
    return SmoothnessResult(True)


def _packed_chart(kind: str, mask: int) -> list[int]:
    """The chart polynomial of an F_2 mask on the first chart of its kind's
    cover, as packed u-polynomials f0..f3, the coefficients of v^0..v^3."""
    desc = quadric(kind)
    cells = desc.cells[desc.cover[0]]
    f = [0] * 4
    for bit, idx in enumerate(desc.kept):
        if (mask >> bit) & 1:
            v_e, u_e = cells[idx]
            f[v_e] ^= 1 << u_e
    return f


def _root_outside(R: Ring, p, q) -> bool:
    """Does p vanish somewhere over the closure of the base field where q
    does not?  The zero polynomial vanishes everywhere.  gcd(p, q) is
    divided out of p until the two are coprime."""
    if not p or not q:
        return bool(q)
    g = R.gcd(p, q)
    while R.degree(g) > 0:
        p = R.divmod(p, g)[0]
        g = R.gcd(p, g)
    return R.degree(p) > 0


def _cubic_form(R: Ring, s, a, b):
    """s[0] b^3 + s[1] a b^2 + s[2] a^2 b + s[3] a^3."""
    acc, bj = s[3], R.one
    for sj in s[2::-1]:
        bj = R.mul(bj, b)
        acc = R.add(R.mul(acc, a), R.mul(sj, bj))
    return acc


def _chart_singular_fibre(R: Ring, f) -> str | None:
    """The kind of fibre u = u0 (over the closure of the base field of R)
    on which the chart polynomial f0 + f1 v + f2 v^2 + f3 v^3, rows of
    R = F[u], is singular: "A" where f3(u0) != 0, "B" where f3(u0) = 0 !=
    f2(u0), "C" at a root of the content; None when f = f_u = f_v = 0 has
    no solution.  Missing top rows are zero, so a chart_polynomial tuple
    serves as it is.

    In characteristic 2, f_v = f1 + f3 w with w = v^2, where v -> v^2 is
    a bijection; on f_v = 0, f = f0 + f2 w, and f_u^2 = sum g_j^2 w^j with
    g_j = f_j'.  So A is a root of gcd(f0 f3 + f1 f2, sum g_j^2 f1^j
    f3^(3-j)) off f3, with w = f1 / f3; B a root of gcd(f1, f3, sum g_j^2
    f0^j f2^(3-j)) off f2, with w = f0 / f2; and C a root of the content
    where sum g_j v^j is not a nonzero constant in v.  Only gcds and
    products in R, which needs nothing but characteristic 2: no
    factorization, no residue field.  A zero gcd is a zero content, so the
    C test is degree != 0, not degree > 0.
    """
    f0, f1, f2, f3 = f = tuple(f) + (R.zero,) * (4 - len(f))
    g = [R.deriv(p) for p in f]
    s = [R.mul(p, p) for p in g]
    if _root_outside(R, R.gcd(R.add(R.mul(f0, f3), R.mul(f1, f2)), _cubic_form(R, s, f1, f3)), f3):
        return "A"
    h = R.gcd(f1, f3)  # B and C lie over its roots
    if R.degree(h) == 0:
        return None
    if _root_outside(R, R.gcd(h, _cubic_form(R, s, f0, f2)), f2):
        return "B"
    c = R.gcd(h, R.gcd(f0, f2))
    if R.degree(R.gcd(c, g[0])) != 0 or _root_outside(R, c, R.gcd(R.gcd(g[1], g[2]), g[3])):
        return "C"
    return None


def _quadric_smooth_f2(curve: QuadricCubicCurve) -> SmoothnessResult:
    """Smoothness of an F_2 model whose mask the quadric scan did not flag:
    the one model in is_smooth, and in the census the least mask of each
    stabilizer orbit, whose result holds for the whole orbit.

    The quadric is covered as in _quadric_smooth_generic, and this route
    decides the first chart of the cover only, by the gcds of
    _chart_singular_fibre over F2X, the packed F_2[u]: the same decision
    the generic route makes over F_{2^k}[u].  Every other point is a scan
    column: the distinguished points lie over F_2, and what the second
    chart adds are lines (Y = Z = 0 and Y = T = 0 on ns, X = T = 0 on the
    cone), which a cubic not containing them meets over F_2, F_4 or F_8
    (no unflagged cubic contains a whole line).
    """
    if _chart_singular_fibre(F2X, _packed_chart(curve.kind, curve.mask)):
        return SmoothnessResult(False, None, "singular point inside the affine chart")
    return SmoothnessResult(True)


# shared with the census's per-residue table (_hyp_smooth_masks), so a
# model's note is the same in classify output and in the records file
_HYP_AFFINE_NOTE = "singular affine point (common root of h and f'^2 + f h'^2)"
_HYP_INFINITY_NOTE = "singular point at infinity"


def _hyperelliptic_smooth(curve: HyperellipticCurve) -> SmoothnessResult:
    F = curve.spec
    h, f = curve.h, curve.f
    dh = poly_deriv(F, h)
    df = poly_deriv(F, f)
    # affine singular point: h(x) = 0 and f'(x)^2 + f(x) h'(x)^2 = 0
    crit = poly_add(F, poly_mul(F, df, df), poly_mul(F, f, poly_mul(F, dh, dh)))
    g = poly_gcd(F, h, crit)
    if poly_degree(g) >= 1:
        roots = poly_roots(F, g)
        witness = None
        if roots:
            x0 = roots[0]
            witness = (F.k, (x0, F.sqrt(poly_eval(F, f, x0))))
        return SmoothnessResult(False, witness, _HYP_AFFINE_NOTE)
    h5 = h[5] if len(h) > 5 else 0
    h4 = h[4] if len(h) > 4 else 0
    f9 = f[9] if len(f) > 9 else 0
    f10 = f[10] if len(f) > 10 else 0
    if not h5 and not F.add(F.mul(f9, f9), F.mul(f10, F.mul(h4, h4))):
        return SmoothnessResult(False, None, _HYP_INFINITY_NOTE)
    return SmoothnessResult(True)


@lru_cache(maxsize=1 << 16)
def is_smooth(curve) -> SmoothnessResult:
    """Exact smoothness of the projective model, over the algebraic closure."""
    if isinstance(curve, HyperellipticCurve):
        return _hyperelliptic_smooth(curve)
    if isinstance(curve, QuadricCubicCurve):
        if curve.spec.k != 1:
            return _quadric_smooth_generic(curve)
        _, flagged, witness = _quadric_scan(curve.kind, curve.mask, curve.mask + 1)
        if flagged[0]:
            return _scan_singular(curve.kind, witness[0])
        return _quadric_smooth_f2(curve)
    raise TypeError(f"not a curve: {curve!r}")


# ---------------------------------------------------------------------------
# automorphisms over F_2
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _stabilizer_matrices(kind: str) -> np.ndarray:
    """The elements of GL_4(F_2) preserving the quadric form (as a function
    on F_2^4, which pins the form itself), as ascending 16-bit matrices m
    whose row i is bits 4i..4i+3; a read-only uint16 array.  Column j of
    such a matrix, the image of e_j, is a nonzero vector where the quadric
    takes its value at e_j, so only the matrices of such columns are tried
    (6,561 for ns, 2,744 for the cone, of 2^16): one is kept when it
    preserves the quadric's values and maps no nonzero vector to 0."""
    values = [eval_quadric(kind, F2, tuple((v >> i) & 1 for i in range(4))) for v in range(16)]
    qset = np.uint16(sum(val << v for v, val in enumerate(values)))  # bit v is the value at v
    columns = [np.array([w for w in range(1, 16) if values[w] == values[1 << j]], np.uint16) for j in range(4)]
    cols = [c.ravel() for c in np.meshgrid(*columns, indexing="ij")]
    keep = np.ones(len(cols[0]), np.bool_)
    for v in range(1, 16):
        image = xor_apply(cols, v)  # the XOR of the columns at the set bits of v
        keep &= (image != 0) & (((qset >> image) & 1) == values[v])
    cols = [c[keep] for c in cols]
    mats = np.sort(sum(((cols[j] >> i) & 1) << (4 * i + j) for i in range(4) for j in range(4)).astype(np.uint16))
    mats.flags.writeable = False
    return mats


@lru_cache(maxsize=None)
def quadric_stabilizer_f2(kind: str) -> tuple[ProjectiveTransform, ...]:
    """All of GL_4(F_2) preserving the quadric form, as substitutions, in
    the order of _stabilizer_matrices(kind): element g is its matrix g."""
    return tuple(
        ProjectiveTransform(F2, tuple(tuple((m >> (4 * i + j)) & 1 for j in range(4)) for i in range(4)))
        for m in _stabilizer_matrices(kind).tolist()
    )


# bit v of a 4-bit linear form is its coefficient of variable v; built
# from lists because a first numpy ufunc call at import would add about
# 0.25 MB to the peak memory of every process that imports the package
_FORM_BITS = np.array([[(w >> v) & 1 for v in range(4)] for w in range(16)], np.uint32)  # (form, variable)


def _form_products(index: dict, monomials) -> np.ndarray:
    """Monomial times linear form as F_2 bitsets, shape (len(monomials), 16):
    entry (m, w) has bit index[e] set for each monomial e of monomials[m]
    times the form w."""
    bit = np.array([[index[tuple(a + (i == v) for i, a in enumerate(e))] for v in range(4)]
                    for e in monomials], np.uint32)
    return np.bitwise_xor.reduce(_FORM_BITS << bit[:, None, :], axis=2)


@lru_cache(maxsize=None)
def _quadric_image_tables(kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi), each of shape (256, |G|) for the stabilizer G of the quadric,
    element g being matrix g of _stabilizer_matrices(kind) and so
    quadric_stabilizer_f2(kind)[g]: the mask of apply_transform(curve of
    mask m, G[g]) is lo[m & 255, g] ^ hi[m >> 8, g].  Substitution and
    reduction are F_2-linear in the cubic, so the columns XOR the images of
    the 16 mask bits, like the scan's byte tables.

    A bit's image is a product of three of the element's linear forms (its
    matrix rows), multiplied out as F_2 bitsets by two tables, gathered by
    numpy for all elements and bits at once: form x form (16 x 16) gives a
    10-bit quadratic in MONOMIALS2 order, and quadric monomial x form
    (10 x 16) gives the 16 kept bits, the quadric's reduction folded in.
    """
    desc = quadric(kind)
    kept = {idx: bit for bit, idx in enumerate(desc.kept)}
    fold = {e: kept[desc.reduction.get(i, i)] for i, e in enumerate(MONOMIALS3)}
    units = [tuple(int(i == v) for i in range(4)) for v in range(4)]
    var_lin = _form_products(_INDEX2, units)  # (variable, form)
    lin_lin = np.bitwise_xor.reduce(_FORM_BITS[:, :, None] * var_lin, axis=1).astype(np.uint16)
    quad_lin = _form_products(fold, MONOMIALS2).astype(np.uint16)
    forms = (_stabilizer_matrices(kind)[:, None] >> np.arange(0, 16, 4, dtype=np.uint16)) & 15
    # the three variables of each kept monomial, with multiplicity
    var = np.array([[v for v in range(4) for _ in range(MONOMIALS3[idx][v])] for idx in desc.kept])
    quad = lin_lin[forms[:, var[:, 0]], forms[:, var[:, 1]]]  # (G, bit)
    terms = quad_lin[np.arange(10), forms[:, var[:, 2], None]]  # (G, bit, quadric monomial)
    terms *= (quad[..., None] >> np.arange(10, dtype=np.uint16)) & 1
    bits = np.bitwise_xor.reduce(terms, axis=2).T  # (bit, G)
    return xor_table(bits[:8]), xor_table(bits[8:])


def _quadric_images(kind: str, masks) -> np.ndarray:
    """Masks of the images of each F_2 model under every element of
    quadric_stabilizer_f2(kind); shape (len(masks), |G|).  A row's minimum
    is the mask of isomorphism_canonical_id, and the count of entries equal
    to the mask is aut_order_f2."""
    lo, hi = _quadric_image_tables(kind)
    masks = np.asarray(masks, np.intp)
    return lo[masks & 255] ^ hi[masks >> 8]


def gl2_f2() -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
    out = []
    for a, b, c, d in itertools.product((0, 1), repeat=4):
        if (a & d) ^ (b & c):
            out.append(((a, b), (c, d)))
    return tuple(out)


def hyperelliptic_transformed(curve: HyperellipticCurve, mat, t) -> HyperellipticCurve:
    """Transport along x -> (a x + b)/(c x + d), y -> (y + t(x))/(c x + d)^5.

    Smooth models stay inside the genus-4 shape family: if the image dropped
    to max(2 deg h, deg f) <= 8 it would have h5 = f9 = f10 = 0, which the
    infinity criterion rejects as singular.  Transporting a singular model
    can therefore raise ValueError when its image leaves the family.

    This is the generic route, over any base field.  The F_2 orbit walk
    reads the images from _hyp_images instead; this function, with
    aut_order_f2, is its test oracle.
    """
    F = curve.spec
    (a, b), (c, d) = mat
    num = poly_from_coeffs(F, (b, a))
    den = poly_from_coeffs(F, (d, c))
    num_pow = [(1,)]
    den_pow = [(1,)]
    for _ in range(10):
        num_pow.append(poly_mul(F, num_pow[-1], num))
        den_pow.append(poly_mul(F, den_pow[-1], den))
    hh: tuple = ()
    for i, ci in enumerate(curve.h):
        if ci:
            hh = poly_add(F, hh, poly_scale(F, poly_mul(F, num_pow[i], den_pow[5 - i]), ci))
    ff: tuple = ()
    for i, ci in enumerate(curve.f):
        if ci:
            ff = poly_add(F, ff, poly_scale(F, poly_mul(F, num_pow[i], den_pow[10 - i]), ci))
    t = poly_from_coeffs(F, t)
    ff = poly_add(F, ff, poly_add(F, poly_mul(F, t, t), poly_mul(F, hh, t)))
    return HyperellipticCurve(F, hh, ff)


@lru_cache(maxsize=None)
def _hyp_image_table() -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(hb, fb) for each matrix of gl2_f2(), with num = a x + b and
    den = c x + d packed in F_2[x]: hb[i] = num^i den^(5-i) and
    fb[i] = num^i den^(10-i), the images of the monomials x^i of h and of f."""
    table = []
    for (a, b), (c, d) in gl2_f2():
        num, den = (a << 1) | b, (c << 1) | d
        num_pow, den_pow = [1], [1]
        for _ in range(10):
            num_pow.append(gf2x_mul(num_pow[-1], num))
            den_pow.append(gf2x_mul(den_pow[-1], den))
        table.append((tuple(gf2x_mul(num_pow[i], den_pow[5 - i]) for i in range(6)),
                      tuple(gf2x_mul(num_pow[i], den_pow[10 - i]) for i in range(11))))
    return tuple(table)


def _hyp_images(hm: int, fm: int) -> list[tuple[int, int]]:
    """(h, f) masks of hyperelliptic_transformed(F_2 model (hm, fm), mat, t)
    for every mat of gl2_f2() and, inside it, every shift mask t in 0..63
    (bit i of t is the coefficient of x^i), in that order.

    The substitution is F_2-linear in the bits of h and of f, so it XORs
    the basis images of _hyp_image_table; the shift adds t^2 + h' t, which
    is F_2-linear in t, so its 64 values XOR those of t = x^j, namely
    x^(2j) + h' x^j.  The images are not checked against the genus-4 shape
    (only a singular model can leave it).
    """
    out = []
    for hb, fb in _hyp_image_table():
        h = xor_apply(hb, hm)
        fs = [xor_apply(fb, fm)]
        # the 64 shifts doubled over ints: a gfarith.xor_table is slower at this size
        for j in range(6):
            step = (1 << 2 * j) ^ (h << j)
            fs += [g ^ step for g in fs]
        out += [(h, g) for g in fs]
    return out


def aut_order_f2(curve) -> int:
    """Order of the automorphism group of the model over F_2 (the stabilizer
    inside the relevant substitution group)."""
    if curve.spec.k != 1:
        raise ValueError("unsupported base field: automorphism counts are for F_2 models")
    if isinstance(curve, QuadricCubicCurve):
        count = 0
        for t in quadric_stabilizer_f2(curve.kind):
            if apply_transform(curve, t).coeffs == curve.coeffs:
                count += 1
        return count
    if isinstance(curve, HyperellipticCurve):
        count = 0
        for mat in gl2_f2():
            for tm in range(64):
                t = tuple((tm >> i) & 1 for i in range(6))
                cand = hyperelliptic_transformed(curve, mat, t)
                if cand.h == curve.h and cand.f == curve.f:
                    count += 1
        return count
    raise TypeError(f"not a curve: {curve!r}")


def jacobian_aut_order(curve, aut: int) -> int:
    """|Aut(Jacobian, principal polarization)| from aut = |Aut(C)|: aut for
    hyperelliptic C and 2 aut otherwise (kinds.Kind.jacobian_factor), by the
    Torelli theorem."""
    return DESCRIPTIONS[curve.kind].jacobian_factor * aut

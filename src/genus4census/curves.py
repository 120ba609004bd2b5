"""Genus-4 curve models over binary fields.

Two families of models:

* quadric-cubic ("ns" and "cone"): the canonical model of a non-hyperelliptic
  genus-4 curve is the intersection of a quadric surface and a cubic surface
  in P^3.  In characteristic 2 the quadric can be put into one of two shapes,

      ns:    X*Y + Z*T         (smooth quadric)
      cone:  X*Y + T^2         (rank-3 quadric, vertex at (0:0:1:0))

  and the cubic is stored as 20 coefficients in a fixed degree-3 monomial
  order.  The four monomials divisible by Z*T (ns) or T^2 (cone) are folded
  into X*Y-multiples modulo the quadric at construction time, so exactly 16
  coefficients are free; over F_2 they pack into a 16-bit mask.

* hyperelliptic: y^2 + h(x) y = f(x) with deg h <= 5, deg f <= 10,
  max(2 deg h, deg f) in {9, 10}, h != 0.  The smooth model lives in the
  weighted projective plane P(1, 5, 1); the chart at infinity is
  x = 1/u, y = w/u^5.

All coefficient arithmetic is exact, through gfarith.FieldSpec.  Points over
extension fields of composite degree beyond F_{2^16} are out of range for
concrete coordinates, but smoothness decisions never need them: the chart
analysis works with residue fields symbolically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import elimination as el
from .gfarith import (
    F2,
    FieldSpec,
    PolyQuotientField,
    embedding,
    field,
    gf2x_mul,
    poly_add,
    poly_degree,
    poly_deriv,
    poly_eval,
    poly_factor,
    poly_from_coeffs,
    poly_gcd,
    poly_mod,
    poly_mul,
    poly_roots,
    poly_scale,
)

__all__ = [
    "MONOMIALS3",
    "MONOMIALS2",
    "QUADRIC_KINDS",
    "kept_monomials",
    "reduction_table",
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
    "cubic_partials",
    "quadric_gradient",
    "affine_model_ns",
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

def _graded_monomials(degree: int) -> tuple[tuple[int, int, int, int], ...]:
    out = []
    for exps in itertools.product(range(degree, -1, -1), repeat=4):
        if sum(exps) == degree:
            out.append(exps)
    return tuple(out)


#: The 20 degree-3 monomials in X, Y, Z, T, exponent-lexicographic descending:
#: X^3, X^2 Y, X^2 Z, X^2 T, X Y^2, X Y Z, X Y T, X Z^2, X Z T, X T^2,
#: Y^3, Y^2 Z, Y^2 T, Y Z^2, Y Z T, Y T^2, Z^3, Z^2 T, Z T^2, T^3.
MONOMIALS3 = _graded_monomials(3)
MONOMIALS2 = _graded_monomials(2)
_INDEX3 = {e: i for i, e in enumerate(MONOMIALS3)}
_INDEX2 = {e: i for i, e in enumerate(MONOMIALS2)}

QUADRIC_KINDS = ("ns", "cone")

# the quadric as a 10-vector in MONOMIALS2 order, and what its last term is
_QUADRIC_EXTRA = {"ns": (0, 0, 1, 1), "cone": (0, 0, 0, 2)}  # Z*T, T^2


def quadric_coeffs(kind: str) -> tuple[int, ...]:
    """X*Y + Z*T or X*Y + T^2 as a coefficient vector (valid over any field)."""
    out = [0] * len(MONOMIALS2)
    out[_INDEX2[(1, 1, 0, 0)]] = 1
    out[_INDEX2[_QUADRIC_EXTRA[kind]]] = 1
    return tuple(out)


def _build_reduction(kind: str) -> dict[int, int]:
    """src -> dst: monomial src is congruent to monomial dst modulo the
    quadric (Z*T = X*Y on ns, T^2 = X*Y on the cone)."""
    rem = _QUADRIC_EXTRA[kind]
    table = {}
    for idx, e in enumerate(MONOMIALS3):
        if all(e[i] >= rem[i] for i in range(4)):
            partner = tuple(e[i] - rem[i] + (1 if i < 2 else 0) for i in range(4))
            table[idx] = _INDEX3[partner]
    return table


_REDUCTION = {kind: _build_reduction(kind) for kind in QUADRIC_KINDS}
_KEPT = {
    kind: tuple(i for i in range(len(MONOMIALS3)) if i not in _REDUCTION[kind])
    for kind in QUADRIC_KINDS
}
# replacement targets are never themselves reducible, so one pass suffices
assert all(dst not in _REDUCTION[k] for k in QUADRIC_KINDS for dst in _REDUCTION[k].values())
assert all(len(_KEPT[k]) == 16 for k in QUADRIC_KINDS)


def reduction_table(kind: str) -> dict[int, int]:
    return dict(_REDUCTION[kind])


def kept_monomials(kind: str) -> tuple[int, ...]:
    return _KEPT[kind]


def reduce_cubic(kind: str, spec: FieldSpec, coeffs) -> tuple[int, ...]:
    """Fold the four quadric-divisible monomials into their X*Y partners."""
    out = list(coeffs)
    for src, dst in _REDUCTION[kind].items():
        if out[src]:
            out[dst] = spec.add(out[dst], out[src])
            out[src] = 0
    return tuple(out)


# ---------------------------------------------------------------------------
# the curve types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadricCubicCurve:
    """A cubic section of one of the two quadric normal forms.

    coeffs has one entry per MONOMIALS3 slot and is stored reduced: the
    entries at reducible slots are zero.  Use quadric_curve to build one
    from an arbitrary coefficient vector.
    """

    kind: str
    spec: FieldSpec
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in QUADRIC_KINDS:
            raise ValueError(f"unknown quadric kind {self.kind!r}")
        if len(self.coeffs) != len(MONOMIALS3):
            raise ValueError("a cubic needs one coefficient per degree-3 monomial")
        for c in self.coeffs:
            self.spec.check(c)
        for src in _REDUCTION[self.kind]:
            if self.coeffs[src]:
                raise ValueError("coefficients are not reduced modulo the quadric")

    @property
    def mask(self) -> int:
        if self.spec.k != 1:
            raise ValueError("bitmask encoding is defined over F_2 only")
        m = 0
        for bit, idx in enumerate(_KEPT[self.kind]):
            if self.coeffs[idx]:
                m |= 1 << bit
        return m

    @property
    def curve_id(self) -> str:
        return f"{self.kind};c=0x{self.mask:04x}"


def quadric_curve(kind: str, spec: FieldSpec, coeffs) -> QuadricCubicCurve:
    return QuadricCubicCurve(kind, spec, reduce_cubic(kind, spec, coeffs))


def quadric_curve_from_mask(kind: str, mask: int) -> QuadricCubicCurve:
    if not 0 <= mask < 1 << 16:
        raise ValueError("cubic masks have 16 bits")
    coeffs = [0] * len(MONOMIALS3)
    for bit, idx in enumerate(_KEPT[kind]):
        coeffs[idx] = (mask >> bit) & 1
    return QuadricCubicCurve(kind, F2, tuple(coeffs))


@dataclass(frozen=True)
class HyperellipticCurve:
    """y^2 + h(x) y = f(x), the standard genus-4 hyperelliptic shape."""

    spec: FieldSpec
    h: tuple[int, ...]
    f: tuple[int, ...]

    def __post_init__(self):
        for c in self.h + self.f:
            self.spec.check(c)
        if (self.h and not self.h[-1]) or (self.f and not self.f[-1]):
            raise ValueError("polynomials must be normalized (no trailing zeros)")
        if not self.h:
            raise ValueError("h must be nonzero: y^2 = f(x) is inseparable in char 2")
        dh, df = poly_degree(self.h), poly_degree(self.f)
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
    parts = s.split(";")
    try:
        if parts[0] in QUADRIC_KINDS and len(parts) == 2 and parts[1].startswith("c="):
            curve = quadric_curve_from_mask(parts[0], int(parts[1][2:], 16))
        elif parts[0] == "hyp" and len(parts) == 3 and parts[1].startswith("h=") and parts[2].startswith("f="):
            curve = hyperelliptic_from_masks(int(parts[1][2:], 16), int(parts[2][2:], 16))
        else:
            raise ValueError("not a census id")
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


def eval_quadric(kind: str, spec, point):
    x, y, z, t = point
    if kind == "ns":
        return spec.add(spec.mul(x, y), spec.mul(z, t))
    return spec.add(spec.mul(x, y), spec.mul(t, t))


def cubic_partials(spec, coeffs, point) -> tuple:
    """The four partial derivatives at a point; char 2 keeps odd exponents."""
    pw = [_powers(spec, c, 3) for c in point]
    out = []
    for v in range(4):
        acc = spec.zero
        for c, e in zip(coeffs, MONOMIALS3):
            if not c or e[v] % 2 == 0:
                continue
            m = pw[v][e[v] - 1]
            for w in range(4):
                if w != v:
                    m = spec.mul(m, pw[w][e[w]])
            acc = spec.add(acc, spec.mul(c, m))
        out.append(acc)
    return tuple(out)


def quadric_gradient(kind: str, spec, point) -> tuple:
    x, y, z, t = point
    if kind == "ns":
        return (y, x, t, z)
    return (y, x, spec.zero, spec.zero)  # d(T^2)/dT = 2T = 0


# the affine bidegree-(3,3) picture of an ns cubic: the smooth quadric is
# P^1 x P^1 via (X, Y, Z, T) = (x z, y t, y z, x t), and each kept monomial
# X^a Y^b Z^g T^d lands on a distinct grid cell (a+g, b+g)
_GRID_CELL = {}
for _i in _KEPT["ns"]:
    _a, _b, _g, _d = MONOMIALS3[_i]
    _GRID_CELL[_i] = (_a + _g, _b + _g)
assert sorted(_GRID_CELL.values()) == sorted(itertools.product(range(4), repeat=2))


def affine_model_ns(curve: QuadricCubicCurve) -> tuple[tuple[int, ...], ...]:
    """The 4x4 coefficient grid a_{ij} of the bidegree model on P^1 x P^1."""
    if curve.kind != "ns":
        raise ValueError("the bidegree grid lives on the smooth quadric; wrong chart")
    g = [[0] * 4 for _ in range(4)]
    for idx, cell in _GRID_CELL.items():
        g[cell[0]][cell[1]] = curve.coeffs[idx]
    return tuple(tuple(row) for row in g)


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


@dataclass(frozen=True)
class ProjectiveTransform:
    """An invertible linear substitution: row i is the form replacing
    variable i, so applying s then t composes as the matrix product s*t."""

    spec: FieldSpec
    rows: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        if len(self.rows) != 4 or any(len(r) != 4 for r in self.rows):
            raise ValueError("a projective substitution needs a 4x4 matrix")
        for r in self.rows:
            for c in r:
                self.spec.check(c)
        if _mat_inverse(self.spec, self.rows) is None:
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
    """Every point of the quadric over spec, each once.

    ns is P^1 x P^1 via (X, Y, Z, T) = (x z, y t, y z, x t); the cone is
    (1 : u^2 : v : u), then (0 : 1 : v : 0), then the vertex (0 : 0 : 1 : 0).
    """
    if kind == "ns":
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


def _byte_table(bits: np.ndarray) -> np.ndarray:
    """XOR of the rows of bits selected by each byte value; shape (256, ...)."""
    out = np.zeros((256,) + bits.shape[1:], bits.dtype)
    for b in range(8):
        out[1 << b:2 << b] = out[:1 << b] ^ bits[b]
    return out


@lru_cache(maxsize=None)
def _quadric_tables(kind: str):
    """(lo, hi, bounds, points): cubic value and Jacobian minors at every
    point of the quadric, for every cubic mask.

    Columns are quadric_points over F_2, F_4, F_8, F_16 in turn; bounds[d-1]
    to bounds[d] are the F_{2^d} columns, and points[col] is (d, point).
    For one cubic monomial, a column holds one uint32 word of seven
    nibbles: its value (bits 0-3) and the six 2x2 minors of (grad monomial;
    grad quadric) in _MINOR_PAIRS order (bits 4-27).  All seven are
    F_2-linear in the cubic coefficients, so the words of mask m are
    lo[m & 255] ^ hi[m >> 8], where lo and hi XOR the words of the low and
    high eight mask bits.  A zero word is a point on the curve where the
    Jacobian drops rank: a rational singular point, and conversely; a zero
    low nibble is a point on the curve.
    """
    points = []
    bounds = [0]
    for d in (1, 2, 3, 4):
        points += [(d, pt) for pt in quadric_points(kind, field(d))]
        bounds.append(len(points))
    exps = [MONOMIALS3[idx] for idx in _KEPT[kind]]
    bits = np.zeros((16, len(points)), np.uint32)
    for col, (d, pt) in enumerate(points):
        K = field(d)
        mul = K.mul
        pw = [_powers(K, c, 3) for c in pt]
        qg = quadric_gradient(kind, K, pt)
        for bit, e in enumerate(exps):
            f = [pw[v][e[v]] for v in range(4)]
            # partial in v: the odd exponent e[v] drops by one, the rest stay
            cp = [mul(mul(pw[v][e[v] - 1], f[(v + 1) % 4]), mul(f[(v + 2) % 4], f[(v + 3) % 4]))
                  if e[v] & 1 else 0 for v in range(4)]
            word = mul(mul(f[0], f[1]), mul(f[2], f[3]))
            for n, (i, j) in enumerate(_MINOR_PAIRS, start=1):
                word |= (mul(cp[i], qg[j]) ^ mul(cp[j], qg[i])) << 4 * n
            bits[bit, col] = word
    return _byte_table(bits[:8]), _byte_table(bits[8:]), tuple(bounds), tuple(points)


def _quadric_scan(kind: str, m0: int, m1: int):
    """Counts and rational-singularity data for the masks m0 <= m < m1.

    The masks sharing a high byte are evaluated as one numpy block of
    packed words.  Returns (counts, flagged, witness_col), indexed by
    mask - m0; witness_col is the first zero word of a flagged mask.
    """
    lo, hi, bounds, _ = _quadric_tables(kind)
    n = m1 - m0
    counts = np.zeros((n, 4), np.int16)
    flagged = np.zeros(n, np.bool_)
    witness = np.zeros(n, np.int32)
    a = m0
    while a < m1:
        b = min((a | 255) + 1, m1)
        cur = lo[a & 255:((b - 1) & 255) + 1] ^ hi[a >> 8]
        dead = cur == 0
        rows = slice(a - m0, b - m0)
        flagged[rows] = dead.any(axis=1)
        witness[rows] = dead.argmax(axis=1)
        counts[rows] = np.add.reduceat((cur & 15) == 0, bounds[:-1], axis=1, dtype=np.int16)
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


@dataclass(frozen=True)
class SmoothnessResult:
    smooth: bool
    witness: tuple | None = None  # (field degree over F_2, coordinates)
    note: str = ""

    def __bool__(self) -> bool:
        return self.smooth


def _rank_le_one(spec, v, w) -> bool:
    """All 2x2 minors of the two gradient rows vanish."""
    for i in range(4):
        for j in range(i + 1, 4):
            if spec.add(spec.mul(v[i], w[j]), spec.mul(v[j], w[i])):
                return False
    return True


def _singular_at(curve: QuadricCubicCurve, spec, coeffs, point) -> bool:
    """Jacobian criterion at a point already known to lie on both surfaces."""
    grad_c = cubic_partials(spec, coeffs, point)
    grad_q = quadric_gradient(curve.kind, spec, point)
    return _rank_le_one(spec, grad_c, grad_q)


# the parts of each quadric not covered by its affine chart are lines; on
# them the cubic restricts to a binary form with these coefficient slots
# (ascending in the line parameter s, point = base + s * direction)
_NS_LINES = (
    # {Y = Z = 0}: points (1 : 0 : 0 : s); s -> infinity is (0:0:0:1)
    ((1, 0, 0, 0), (0, 0, 0, 1), ((3, 0, 0, 0), (2, 0, 0, 1), (1, 0, 0, 2), (0, 0, 0, 3))),
    # {Y = T = 0}: points (1 : 0 : s : 0); s -> infinity is (0:0:1:0)
    ((1, 0, 0, 0), (0, 0, 1, 0), ((3, 0, 0, 0), (2, 0, 1, 0), (1, 0, 2, 0), (0, 0, 3, 0))),
)
_CONE_LINES = (
    # {X = T = 0}: points (0 : 1 : s : 0); s -> infinity is the vertex
    ((0, 1, 0, 0), (0, 0, 1, 0), ((0, 3, 0, 0), (0, 2, 1, 0), (0, 1, 2, 0), (0, 0, 3, 0))),
)


def _line_point(base, direction, spec, s):
    return tuple(spec.add(b, spec.mul(s, d)) for b, d in zip(base, direction))


def _check_line(curve: QuadricCubicCurve, line) -> SmoothnessResult | None:
    """Scan the singular locus along one of the boundary lines (the point at
    s = infinity is handled separately by the distinguished-point checks)."""
    spec = curve.spec
    base, direction, slots = line
    form = poly_from_coeffs(spec, [curve.coeffs[_INDEX3[e]] for e in slots])
    if not form:
        # the cubic vanishes on the whole line, which then is a component of
        # the intersection; the residual degree-5 part meets it somewhere
        return SmoothnessResult(False, None, "a boundary line lies on the cubic")
    for g, _ in poly_factor(spec, form):
        if poly_degree(g) == 1:
            s = g[0]  # monic s + c has root c in char 2
            pt = _line_point(base, direction, spec, s)
            if _singular_at(curve, spec, curve.coeffs, pt):
                return SmoothnessResult(False, (spec.k, pt), "singular on a boundary line")
        else:
            K = PolyQuotientField(spec, g)
            s = poly_mod(spec, (0, 1), g)
            lifted = tuple(K.lift(c) for c in curve.coeffs)
            pt = tuple(K.add(K.lift(b), K.mul(s, K.lift(d))) for b, d in zip(base, direction))
            if _singular_at(curve, K, lifted, pt):
                return SmoothnessResult(
                    False, None, f"singular on a boundary line over a degree-{poly_degree(g)} extension"
                )
    return None


def _chart_polys_generic(curve: QuadricCubicCurve):
    """The cubic pulled back to the affine chart of its quadric.

    ns:   (X,Y,Z,T) = (u v, 1, v, u) parametrizes {Y != 0}
    cone: (X,Y,Z,T) = (1, u^2, v, u) parametrizes {X != 0}
    """
    spec = curve.spec
    if curve.kind == "ns":
        rows = [[0] * 4 for _ in range(4)]
        for idx, c in enumerate(curve.coeffs):
            if c:
                a, b, g, d = MONOMIALS3[idx]
                rows[a + g][a + d] = spec.add(rows[a + g][a + d], c)
    else:
        rows = [[0] * 7 for _ in range(4)]
        for idx, c in enumerate(curve.coeffs):
            if c:
                a, b, g, d = MONOMIALS3[idx]
                rows[g][2 * b + d] = spec.add(rows[g][2 * b + d], c)
    return el.biv_from_rows(spec, rows)


def _distinguished_checks(curve: QuadricCubicCurve) -> SmoothnessResult | None:
    spec = curve.spec
    co = curve.coeffs
    if curve.kind == "ns":
        # (0:0:0:1) is singular iff c(T^3) = c(XT^2) = c(YT^2) = 0
        if not co[_INDEX3[(0, 0, 0, 3)]] and not co[_INDEX3[(1, 0, 0, 2)]] and not co[_INDEX3[(0, 1, 0, 2)]]:
            return SmoothnessResult(False, (spec.k, (0, 0, 0, 1)), "singular at (0:0:0:1)")
        # (0:0:1:0) is singular iff c(Z^3) = c(XZ^2) = c(YZ^2) = 0
        if not co[_INDEX3[(0, 0, 3, 0)]] and not co[_INDEX3[(1, 0, 2, 0)]] and not co[_INDEX3[(0, 1, 2, 0)]]:
            return SmoothnessResult(False, (spec.k, (0, 0, 1, 0)), "singular at (0:0:1:0)")
    else:
        # the cone vertex: if the cubic passes through it the intersection is
        # singular there, because the quadric gradient vanishes at the vertex
        if not co[_INDEX3[(0, 0, 3, 0)]]:
            return SmoothnessResult(False, (spec.k, (0, 0, 1, 0)), "the cubic meets the cone vertex")
    return None


def _quadric_smooth_generic(curve: QuadricCubicCurve) -> SmoothnessResult:
    res = _distinguished_checks(curve)
    if res is not None:
        return res
    for line in _NS_LINES if curve.kind == "ns" else _CONE_LINES:
        res = _check_line(curve, line)
        if res is not None:
            return res
    f = _chart_polys_generic(curve)
    spec = curve.spec
    system = [f, el.biv_deriv_u(spec, f), el.biv_deriv_v(spec, f)]
    if el.exists_common_zero(spec, system):
        return SmoothnessResult(False, None, "singular point inside the affine chart")
    return SmoothnessResult(True)


# the affine chart's (v-degree, u-degree) of each F_2 mask bit
_F2_CELLS = {kind: tuple((a + g, a + d) if kind == "ns" else (g, 2 * b + d)
                         for a, b, g, d in (MONOMIALS3[i] for i in _KEPT[kind]))
             for kind in QUADRIC_KINDS}


def _quadric_smooth_f2(curve: QuadricCubicCurve) -> SmoothnessResult:
    """Smoothness of an F_2 model whose mask the quadric scan did not flag:
    the one model in is_smooth, and in the census the least mask of each
    stabilizer orbit, whose result holds for the whole orbit.

    Every point off the affine chart is a scan column: (0:0:0:1), (0:0:1:0)
    and the cone vertex lie over F_2, and a boundary line meets the cubic
    over F_2, F_4 or F_8 (no unflagged cubic contains a whole line).  What
    is left is the chart, decided by elimination over packed F_2[u].
    """
    mask = curve.mask
    grid = [0] * 4
    for bit, (v_e, u_e) in enumerate(_F2_CELLS[curve.kind]):
        if (mask >> bit) & 1:
            grid[v_e] ^= 1 << u_e
    f = tuple(grid)
    system = [f, el.f2_biv_deriv_u(f), el.f2_biv_deriv_v(f)]
    if el.exists_common_zero_f2(system):
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
def quadric_stabilizer_f2(kind: str) -> tuple[ProjectiveTransform, ...]:
    """All of GL_4(F_2) preserving the quadric form (as a function on F_2^4,
    which pins the form itself), in ascending order of the 16-bit matrix m
    whose row i is bits 4i..4i+3.  Computed once from the images of the 16
    vectors under all 2^16 matrices: a matrix is kept when it preserves the
    quadric's values and maps no nonzero vector to 0."""
    ms = np.arange(1 << 16, dtype=np.uint16)
    # column j of every matrix as a 4-bit vector; the image of v XORs the
    # columns at the set bits of v
    cols = [sum(((ms >> (4 * i + j)) & 1) << i for i in range(4)).astype(np.uint8) for j in range(4)]
    values = [eval_quadric(kind, F2, tuple((v >> i) & 1 for i in range(4))) for v in range(16)]
    qset = np.uint16(sum(val << v for v, val in enumerate(values)))  # bit v is the value at v
    keep = np.ones(1 << 16, np.bool_)
    for v in range(1, 16):
        image = np.zeros(1 << 16, np.uint8)
        for j in range(4):
            if (v >> j) & 1:
                image ^= cols[j]
        keep &= (image != 0) & (((qset >> image) & 1) == values[v])
    return tuple(
        ProjectiveTransform(F2, tuple(tuple((int(m) >> (4 * i + j)) & 1 for j in range(4)) for i in range(4)))
        for m in np.flatnonzero(keep)
    )


def _bits(x: int):
    return (i for i in range(x.bit_length()) if (x >> i) & 1)


@lru_cache(maxsize=None)
def _quadric_image_tables(kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi), each of shape (256, |G|) for G = quadric_stabilizer_f2(kind):
    the mask of apply_transform(curve of mask m, G[i]) is
    lo[m & 255, i] ^ hi[m >> 8, i].  Substitution and reduction are
    F_2-linear in the cubic, so the columns XOR the images of the 16 mask
    bits, like the scan's byte tables.

    A bit's image is a product of three of the transform's linear forms,
    multiplied out as F_2 bitsets: 4-bit forms (bit v: variable v) to a
    10-bit quadratic (MONOMIALS2 order) to a 20-bit cubic (MONOMIALS3
    order), which the quadric's reduction folds onto the 16 kept bits.
    """
    unit = [tuple(int(w == v) for w in range(4)) for v in range(4)]
    lin_lin = [[0] * 16 for _ in range(16)]
    for u in range(16):
        for w in range(16):
            for i in _bits(u):
                for j in _bits(w):
                    lin_lin[u][w] ^= 1 << _INDEX2[tuple(a + b for a, b in zip(unit[i], unit[j]))]
    quad_lin = [[0] * 16 for _ in MONOMIALS2]
    for m, e in enumerate(MONOMIALS2):
        for w in range(16):
            for j in _bits(w):
                quad_lin[m][w] ^= 1 << _INDEX3[tuple(a + b for a, b in zip(e, unit[j]))]
    pos = {idx: bit for bit, idx in enumerate(_KEPT[kind])}
    fold = [1 << pos[_REDUCTION[kind].get(i, i)] for i in range(len(MONOMIALS3))]
    group = quadric_stabilizer_f2(kind)
    bits = np.zeros((16, len(group)), np.uint16)
    for g, t in enumerate(group):
        forms = [sum(c << j for j, c in enumerate(row)) for row in t.rows]
        for bit, idx in enumerate(_KEPT[kind]):
            f1, f2, f3 = (forms[v] for v in range(4) for _ in range(MONOMIALS3[idx][v]))
            cubic = 0
            for m in _bits(lin_lin[f1][f2]):
                cubic ^= quad_lin[m][f3]
            image = 0
            for i in _bits(cubic):
                image ^= fold[i]
            bits[bit, g] = image
    return _byte_table(bits[:8]), _byte_table(bits[8:])


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
        h = f = 0
        for i in range(6):
            if (hm >> i) & 1:
                h ^= hb[i]
        for i in range(11):
            if (fm >> i) & 1:
                f ^= fb[i]
        fs = [f]
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


def jacobian_aut_order(curve, aut: int | None = None) -> int:
    """|Aut(Jacobian, principal polarization)| = |Aut(C)| for hyperelliptic C
    and 2 |Aut(C)| otherwise, by the Torelli theorem."""
    if aut is None:
        aut = aut_order_f2(curve)
    if isinstance(curve, HyperellipticCurve):
        return aut
    return 2 * aut

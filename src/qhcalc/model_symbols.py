"""Exact model operators on flat-torus fibres.

Vector fields and differential operators are kept fully symbolic:
coefficients are Gaussian-rational combinations of boundary-coordinate
powers, torus modes, and powers of the full angle (stored as a formal
symbol, so mode derivatives stay exact).  Lifts through the double-space
blowups, principal symbols, operator composition with commutator
corrections, and truncated fibre-mode matrices of boundary models are
all computed without floating point; numerics appear only in grid
sweeps for invertibility margins and in the sampled symbol check.

The fully elliptic check has one spectral dispatch: the model Laplacian
takes its closed-form spectrum, and every other operator the grid
sweep.  The sweep compiles the boundary family once: at the base point
0 every phase is trivial, so the family is a polynomial in the conormal
parameter whose matrix coefficients are assembled exactly, by the same
kernel as ``normal_family_matrix``, which sums plain ints over one
common denominator and builds one Gaussian rational per nonzero value,
and then converted to complex arrays.  The grid is evaluated with numpy
in chunks of bounded size, one batched SVD per chunk, and the witness
is the first grid point, in ``itertools.product`` order, that attains
the minimum.  Model operators live on depth-2 towers; other depths are
rejected with a ``ValueError``.  numpy is imported by the functions
that do float work, each of which runs only after the depth is checked,
so the exact paths and every rejected depth run without it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .index_algebra import CxRat, cx
from .tower import Tower, require_depth_2

if TYPE_CHECKING:
    import numpy as np

TWO_PI = 2.0 * math.pi

I_UNIT = cx(0, 1)
MINUS_I = cx(0, -1)
ZERO = cx(0)


# ---------------------------------------------------------------------------
# exact coefficients: x-powers, torus modes, powers of the full angle

class _Sparse(dict):
    """Sparse polynomial: monomial key -> nonzero Gaussian rational.

    `_key_add` says how two keys add when their monomials multiply:
    as integers here, componentwise in `Coeff`.
    """

    _key_add = staticmethod(operator.add)

    def acc(self, key, value: CxRat) -> None:
        """Add value at key; the key is dropped when the sum is 0."""
        s = self.get(key, ZERO) + value
        if s.re == 0 and s.im == 0:
            self.pop(key, None)
        else:
            self[key] = s

    def __add__(self, other):
        out = type(self)(self)
        for k, v in other.items():
            out.acc(k, v)
        return out

    def __mul__(self, other):
        out = type(self)()
        for k1, v1 in self.items():
            for k2, v2 in other.items():
                out.acc(self._key_add(k1, k2), v1 * v2)
        return out


class Coeff(_Sparse):
    """Map (x power, modes, angle power) -> Gaussian rational.

    Modes run over all torus coordinates in the order (y, z, w); the
    angle symbol stands for the full turn, so a mode derivative in a
    fibre direction multiplies by (angle * mode) exactly.
    """

    @staticmethod
    def _key_add(k1, k2):
        (n1, m1, w1), (n2, m2, w2) = k1, k2
        return (n1 + n2, tuple(a + b for a, b in zip(m1, m2)), w1 + w2)

    def scale(self, v: CxRat) -> "Coeff":
        if v.re == 0 and v.im == 0:
            return Coeff()
        return Coeff({k: val * v for k, val in self.items()})

    def xshift(self, d: int) -> "Coeff":
        return Coeff({(n + d, m, w): v for (n, m, w), v in self.items()})

    def at_x0(self) -> "Coeff":
        return Coeff({k: v for k, v in self.items() if k[0] == 0})

    def is_zero(self) -> bool:
        return not self


def coeff_const(t: Tower, value, xpow: int = 0,
                modes: Optional[tuple] = None) -> Coeff:
    nm = t.b + sum(t.f)
    m = tuple(modes) if modes is not None else (0,) * nm
    if len(m) != nm:
        raise ValueError("mode tuple length mismatch")
    v = value if isinstance(value, CxRat) else cx(Fraction(value))
    if v.re == 0 and v.im == 0:
        return Coeff()
    return Coeff({(xpow, m, 0): v})


def model_dims(t: Tower) -> tuple:
    """(b, f1, f2) of the tower; model operators live on depth-2 towers."""
    require_depth_2(t, "model")
    return t.b, t.f[0], t.f[1]


def _mode_slices(t: Tower):
    b, f1, f2 = model_dims(t)
    return slice(0, b), slice(b, b + f1), slice(b + f1, b + f1 + f2)


# ---------------------------------------------------------------------------
# differential operators in weighted normal form

MultiIndex = tuple  # (alpha, I, J, K)


def _mi(alpha, I, J, K) -> MultiIndex:
    return (int(alpha), tuple(I), tuple(J), tuple(K))


# multi-index slot (I, J or K) raised by each fibre generator
_SLOT = {"y": 0, "z": 1, "w": 2}


def _raised(mu: MultiIndex, kind: str, index: int, by: int = 1):
    """mu with the index-th exponent of generator `kind` raised by `by`."""
    idx = [list(v) for v in mu[1:]]
    idx[_SLOT[kind]][index] += by
    return _mi(mu[0], *idx)


def _mi_degree(mu: MultiIndex) -> int:
    return mu[0] + sum(mu[1]) + sum(mu[2]) + sum(mu[3])


@dataclass(frozen=True)
class ADiffOp:
    """Weighted-derivative normal form: coefficient times generator powers.

    Generators in order: the scaled boundary derivative, the scaled base
    derivatives, the scaled middle-fibre derivatives, and the plain
    deep-fibre derivatives.
    """

    tower: Tower
    terms: tuple   # ((MultiIndex, Coeff), ...), nonzero, sorted

    def __post_init__(self):
        dims = model_dims(self.tower)
        for mu, c in self.terms:
            if tuple(len(part) for part in mu[1:]) != dims:
                raise ValueError(f"multi-index {mu} needs I, J, K of "
                                 f"lengths {dims}")
            if any(len(m) != sum(dims) for _, m, _ in c):
                raise ValueError(f"coefficient modes need length {sum(dims)}")
            if min((mu[0], *mu[1], *mu[2], *mu[3])) < 0:
                raise ValueError(f"multi-index {mu} has a negative entry")

    @property
    def order(self) -> int:
        return max((_mi_degree(mu) for mu, _ in self.terms), default=0)

    def coeff(self, mu: MultiIndex) -> Coeff:
        for m, c in self.terms:
            if m == mu:
                return c
        return Coeff()


def make_op(t: Tower, termdict) -> ADiffOp:
    items = []
    for mu, c in termdict.items():
        if isinstance(c, (int, Fraction)):
            c = coeff_const(t, c)
        if not c.is_zero():
            items.append((mu, Coeff(c)))
    items.sort(key=lambda mc: (repr(mc[0])))
    return ADiffOp(t, tuple(items))


def _mi_zero(t: Tower) -> MultiIndex:
    return _mi(0, *((0,) * n for n in model_dims(t)))


def generator(t: Tower, kind: str, index: int = 0) -> ADiffOp:
    """Single weighted generator: kind in {x, y, z, w}."""
    mu = _mi_zero(t)
    if kind == "x":
        return make_op(t, {(1,) + mu[1:]: 1})
    if kind not in _SLOT:
        raise ValueError("kind must be one of x, y, z, w")
    if not 0 <= index < len(mu[1 + _SLOT[kind]]):
        raise ValueError(f"generator {kind} has no direction {index}")
    return make_op(t, {_raised(mu, kind, index): 1})


def model_laplacian(t: Tower) -> ADiffOp:
    """Sum of squares of all weighted generators (flat product model)."""
    mu = _mi_zero(t)
    terms = {(2,) + mu[1:]: coeff_const(t, 1)}
    for kind, n in zip(_SLOT, model_dims(t)):
        for i in range(n):
            terms[_raised(mu, kind, i, 2)] = coeff_const(t, 1)
    return make_op(t, terms)


# generator action on coefficients -------------------------------------------

def _gen_xweight(t: Tower, kind: str) -> int:
    """Boundary power g of the weighted generator x^g d/d(kind)."""
    a1, a2 = t.orders[1], t.orders[2]
    weights = {"x": 1 + a1 + a2, "y": a1 + a2, "z": a2, "w": 0}
    if kind not in weights:
        raise ValueError(f"kind must be one of x, y, z, w, not {kind!r}")
    return weights[kind]


def _apply_gen_to_coeff(t: Tower, kind: str, index: int, c: Coeff) -> Coeff:
    """Weighted derivative of a coefficient function."""
    b, f1 = t.b, t.f[0]
    out = Coeff()
    for (n, m, w), v in c.items():
        if kind == "x":
            if n == 0:
                continue
            k = (n - 1 + _gen_xweight(t, "x"), m, w)
            add = v * n * MINUS_I
        else:
            pos = {"y": index, "z": b + index, "w": b + f1 + index}[kind]
            if m[pos] == 0:
                continue
            k = (n + _gen_xweight(t, kind), m, w + 1)
            add = v * m[pos]
        out.acc(k, add)
    return out


def _lmul_gen(t: Tower, kind: str, index: int, terms: dict) -> dict:
    """Left-multiply a normal-form term dict by one weighted generator."""
    a12 = t.orders[1] + t.orders[2]
    out = {}

    def acc(mu, c):
        if c.is_zero():
            return
        out[mu] = out.get(mu, Coeff()) + c

    for mu, c in terms.items():
        alpha, I, J, K = mu
        # move the generator past the coefficient
        gc = _apply_gen_to_coeff(t, kind, index, c)
        acc(mu, gc)
        if kind == "x":
            acc(_mi(alpha + 1, I, J, K), c)
            continue
        if kind == "w" or alpha == 0:
            acc(_raised(mu, kind, index), c)
            continue
        # commute past the boundary generators: G X^a = X (G X^{a-1})
        # + i g x^{a1+a2} (G X^{a-1}), g the x-weight of G
        inner = _lmul_gen(t, kind, index,
                          {_mi(alpha - 1, I, J, K): coeff_const(t, 1)})
        outer = _lmul_gen(t, "x", 0, inner)
        g = _gen_xweight(t, kind)
        for nu, c2 in outer.items():
            acc(nu, c2 * c)
        for nu, c2 in inner.items():
            acc(nu, (c2 * c).xshift(a12).scale(I_UNIT * g))
    return {mu: c for mu, c in out.items() if not c.is_zero()}


def op_compose(P: ADiffOp, Q: ADiffOp) -> ADiffOp:
    """Operator product in normal form, commutators included."""
    t = P.tower
    if Q.tower != t:
        raise ValueError("operators live over different towers")
    total = {}
    for mu, c in P.terms:
        alpha, I, J, K = mu
        cur = {m: Coeff(cc) for m, cc in Q.terms}
        for kind, powers in (("w", K), ("z", J), ("y", I)):
            for i in reversed(range(len(powers))):
                for _ in range(powers[i]):
                    cur = _lmul_gen(t, kind, i, cur)
        for _ in range(alpha):
            cur = _lmul_gen(t, "x", 0, cur)
        for nu, c2 in cur.items():
            prod = c * c2
            if prod.is_zero():
                continue
            total[nu] = total.get(nu, Coeff()) + prod
    return make_op(t, total)


# ---------------------------------------------------------------------------
# principal symbol

@dataclass(frozen=True)
class SymbolPoly:
    """Homogeneous top part: multi-index -> coefficient."""

    tower: Tower
    degree: int
    terms: tuple


def principal_symbol(P: ADiffOp) -> SymbolPoly:
    m = P.order
    items = [(mu, c) for mu, c in P.terms if _mi_degree(mu) == m]
    items.sort(key=lambda mc: repr(mc[0]))
    return SymbolPoly(P.tower, m, tuple(items))


def symbol_mul(s1: SymbolPoly, s2: SymbolPoly) -> SymbolPoly:
    out = {}
    for mu1, c1 in s1.terms:
        for mu2, c2 in s2.terms:
            mu = (mu1[0] + mu2[0],
                  tuple(a + b for a, b in zip(mu1[1], mu2[1])),
                  tuple(a + b for a, b in zip(mu1[2], mu2[2])),
                  tuple(a + b for a, b in zip(mu1[3], mu2[3])))
            out[mu] = out.get(mu, Coeff()) + c1 * c2
    items = [(mu, c) for mu, c in out.items() if not c.is_zero()]
    items.sort(key=lambda mc: repr(mc[0]))
    return SymbolPoly(s1.tower, s1.degree + s2.degree, tuple(items))


def symbols_equal(s1: SymbolPoly, s2: SymbolPoly) -> bool:
    d1 = {mu: c for mu, c in s1.terms if not c.is_zero()}
    d2 = {mu: c for mu, c in s2.terms if not c.is_zero()}
    return d1 == d2


# ---------------------------------------------------------------------------
# vector field lifts through the double-space blowups

@dataclass(frozen=True)
class VFTerm:
    """coeff * x^xpow * (chart monomial) * d/d(direction)."""

    coeff: Fraction
    xpow: int
    mono: tuple       # sorted ((var, power), ...), chart variables
    direction: str


def _vt(coeff, xpow, mono, direction) -> VFTerm:
    mono = tuple(sorted((v, p) for v, p in mono if p))
    return VFTerm(Fraction(coeff), xpow, mono, direction)


def _mono_mul(m1, m2):
    d = dict(m1)
    for v, p in m2:
        d[v] = d.get(v, 0) + p
    return tuple(sorted((v, p) for v, p in d.items() if p))


def _collect(terms):
    acc = {}
    for t in terms:
        key = (t.xpow, t.mono, t.direction)
        acc[key] = acc.get(key, Fraction(0)) + t.coeff
    return tuple(_vt(c, x, m, d) for (x, m, d), c in sorted(
        acc.items(), key=repr) if c != 0)


def is_weighted_field(t: Tower, terms) -> bool:
    """Membership test for the weighted vector field module.

    Terms are (x power, direction kind, coefficient); each term needs
    at least the boundary power of its generator (`_gen_xweight`).
    """
    return all(xpow >= _gen_xweight(t, kind) for xpow, kind, _ in terms)


def basis_field(t: Tower, kind: str) -> tuple:
    """Weighted basis field as interior chart terms before any blowup;
    the x field is written with x d/dx, so its power is one less."""
    xpow = _gen_xweight(t, kind)
    if kind == "x":
        return (_vt(1, xpow - 1, (), "x_dx"),)
    return (_vt(1, xpow, (), "d" + kind),)


def _subst_t(terms, a1):
    """Replace the ratio coordinate after the second blowup: t = 1 - x^a1 T."""
    out = []
    for tm in terms:
        tp = dict(tm.mono).pop("t", 0)
        rest = tuple((v, p) for v, p in tm.mono if v != "t")
        if tp == 0:
            out.append(tm)
            continue
        # expand (1 - x^a1 T)^tp
        for j in range(tp + 1):
            cmb = Fraction(math.comb(tp, j)) * ((-1) ** j)
            tfac = (("T", j),) if j else ()
            out.append(_vt(tm.coeff * cmb, tm.xpow + a1 * j,
                           _mono_mul(rest, tfac), tm.direction))
    return out


def lift_stage_x(terms):
    """Through the corner blowup: x d/dx picks up the ratio direction."""
    out = []
    for tm in terms:
        if tm.direction == "x_dx":
            out.append(tm)
            out.append(_vt(-tm.coeff, tm.xpow,
                           _mono_mul(tm.mono, (("t", 1),)), "dt"))
        else:
            out.append(tm)
    return _collect(out)


def lift_stage_y(terms, a1):
    """Through the first diagonal blowup (order a1)."""
    out = []
    for tm in _subst_t(terms, a1):
        if tm.direction == "x_dx":
            out.append(tm)
            out.append(_vt(-a1 * tm.coeff, tm.xpow,
                           _mono_mul(tm.mono, (("T", 1),)), "dT"))
            out.append(_vt(-a1 * tm.coeff, tm.xpow,
                           _mono_mul(tm.mono, (("Y", 1),)), "dY"))
        elif tm.direction == "dt":
            out.append(_vt(-tm.coeff, tm.xpow - a1, tm.mono, "dT"))
        elif tm.direction == "dy":
            out.append(tm)
            out.append(_vt(tm.coeff, tm.xpow - a1, tm.mono, "dY"))
        else:
            out.append(tm)
    return _collect(out)


def lift_stage_z(terms, a2):
    """Through the second diagonal blowup (order a2): T = x^a2 cT and
    Y = x^a2 cY."""
    out = []
    for tm in terms:
        scaled = [p for v, p in tm.mono if v in ("T", "Y")]
        tm = _vt(tm.coeff, tm.xpow + a2 * sum(scaled),
                 tuple(("c" + v if v in ("T", "Y") else v, p)
                       for v, p in tm.mono), tm.direction)
        if tm.direction == "x_dx":
            out.append(tm)
            for var, dr in (("cT", "dcT"), ("cY", "dcY"), ("cZ", "dcZ")):
                out.append(_vt(-a2 * tm.coeff, tm.xpow,
                               _mono_mul(tm.mono, ((var, 1),)), dr))
        elif tm.direction in ("dT", "dY"):
            out.append(_vt(tm.coeff, tm.xpow - a2, tm.mono,
                           "dc" + tm.direction[1:]))
        elif tm.direction == "dz":
            out.append(tm)
            out.append(_vt(tm.coeff, tm.xpow - a2, tm.mono, "dcZ"))
        else:
            out.append(tm)
    return _collect(out)


def lift_vf(t: Tower, kind: str, stage: str) -> tuple:
    """Lift of a weighted basis field to the requested blowup stage.

    Every term carries a nonnegative boundary power; the boundary values
    at the deepest stage are the plain fibre derivatives.
    """
    terms = lift_stage_x(basis_field(t, kind))
    if stage == "x":
        return terms
    terms = lift_stage_y(terms, t.orders[1])
    if stage == "y":
        return terms
    terms = lift_stage_z(terms, t.orders[2])
    if any(tm.xpow < 0 for tm in terms):
        raise AssertionError("lift produced a negative boundary power")
    return terms


def boundary_part(terms) -> tuple:
    return tuple(tm for tm in terms if tm.xpow == 0)


def format_vf(terms) -> str:
    bits = []
    for tm in terms:
        mono = "".join(f"{v}^{p}" if p > 1 else v for v, p in tm.mono)
        xs = f"x^{tm.xpow}" if tm.xpow > 1 else ("x" if tm.xpow == 1 else "")
        coeff = "" if tm.coeff == 1 and (xs or mono) else str(tm.coeff)
        lead = "".join(filter(None, [coeff, xs, mono])) or "1"
        bits.append(f"{lead}*{tm.direction}")
    return " + ".join(bits) if bits else "0"


def transversality_check(t: Tower, include_w: bool = True) -> bool:
    """The lifted basis spans a complement of the lifted diagonal.

    At the deepest front face the boundary parts of the lifted fields
    are the fibre derivatives; together with the diagonal tangents they
    must span all interior directions (exact integer rank).
    """
    b, f1, f2 = model_dims(t)
    dirs = (["dcT"] + [f"dcY{i}" for i in range(b)]
            + [f"dcZ{j}" for j in range(f1)]
            + [f"dy{i}" for i in range(b)] + [f"dz{j}" for j in range(f1)]
            + [f"dw{k}" for k in range(f2)] + [f"dwp{k}" for k in range(f2)])
    idx = {d: i for i, d in enumerate(dirs)}
    rows = []

    def unit(d):
        row = [Fraction(0)] * len(dirs)
        row[idx[d]] = Fraction(1)
        return row

    # the lifted x, y and z fields restrict to the model derivatives
    for kind, d in (("x", "dcT"), ("y", "dcY"), ("z", "dcZ")):
        bp = boundary_part(lift_vf(t, kind, "z"))
        if len(bp) != 1 or bp[0].direction != d:
            return False
    rows += [unit(d) for d in dirs[:1 + b + f1]]          # dcT, dcY, dcZ
    if include_w:
        rows += [unit(f"dw{k}") for k in range(f2)]
    # tangents of the lifted diagonal
    rows += [unit(d) for d in dirs[1 + b + f1:1 + 2 * (b + f1)]]  # dy, dz
    for k in range(f2):
        row = [Fraction(0)] * len(dirs)
        row[idx[f"dw{k}"]] = Fraction(1)
        row[idx[f"dwp{k}"]] = Fraction(1)
        rows.append(row)
    # exact rank
    mat = [row[:] for row in rows]
    rank, ncols = 0, len(dirs)
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0),
                   None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pr = mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                fac = mat[r][col] / pr[col]
                mat[r] = [a - fac * bb for a, bb in zip(mat[r], pr)]
        rank += 1
    return rank == len(dirs)


def kernel_coeff_check(P: ADiffOp) -> dict:
    """Leading kernel coefficients at the deepest front face.

    The lifted weighted generators restrict to plain fibre derivatives
    there and every lift correction carries a positive boundary power,
    so the kernel coefficients equal the operator coefficients at the
    boundary.  Returns the boundary coefficients and the verification.
    """
    t = P.tower
    ok = True
    for kind in ("x", "y", "z", "w"):
        terms = lift_vf(t, kind, "z")
        bp = boundary_part(terms)
        if len(bp) != 1 or bp[0].coeff != 1:
            ok = False
        if any(tm.xpow < 1 for tm in terms if tm not in bp):
            ok = False
    leading = {}
    for mu, c in P.terms:
        c0 = c.at_x0()
        if not c0.is_zero():
            leading[mu] = c0
    return {"lift_corrections_vanish": ok, "leading_coefficients": leading}


# ---------------------------------------------------------------------------
# normal family matrices on truncated fibre modes

class PiPoly(_Sparse):
    """Exact polynomial in the full-angle symbol: power -> Gaussian rational."""

    def numeric(self) -> complex:
        return sum(complex(v.re, v.im) * (TWO_PI ** k)
                   for k, v in self.items())


@dataclass
class NormalFamilyMatrix:
    """Truncated fibre-mode matrix of the boundary model at (point, mu).

    Entries are exact angle polynomials when every coefficient phase is
    trivial at the base point; otherwise entries are complex numbers.
    """

    tower: Tower
    point: tuple
    mu: tuple
    N: int
    modes: tuple
    entries: dict            # (row_mode, col_mode) -> PiPoly or complex
    exact: bool

    def dim(self) -> int:
        return len(self.modes)

    def to_array(self) -> np.ndarray:
        import numpy as np
        idx = {k: i for i, k in enumerate(self.modes)}
        A = np.zeros((len(self.modes), len(self.modes)), dtype=complex)
        for (r, c), v in self.entries.items():
            A[idx[r], idx[c]] = v.numeric() if isinstance(v, PiPoly) else v
        return A

    def is_diagonal(self) -> bool:
        return all(r == c for (r, c) in self.entries)


MAX_MODES = 1 << 16     # most modes, (2N + 1)^f2, of a truncation


def _truncated_modes(t: Tower, N: int, terms: tuple = ()) -> tuple:
    """Deep-fibre modes of sup-norm <= N, once N dominates the terms'
    coefficient support; more than MAX_MODES are rejected unbuilt."""
    f2 = model_dims(t)[2]
    support = max((abs(q) for _, c in terms for (n, m, w) in c if n == 0
                   for q in m[len(m) - f2:]), default=0)
    if support > N:
        raise ValueError(
            f"truncation {N} below coefficient mode support {support}")
    # for N >= 1 the count passes MAX_MODES once f2 reaches its bit length
    if (2 * N + 1) ** min(f2, MAX_MODES.bit_length()) > MAX_MODES:
        raise ValueError(f"truncation {N} exceeds {MAX_MODES} modes, "
                         f"(2N + 1)^f2 with f2 = {f2}")
    return tuple(itertools.product(range(-N, N + 1), repeat=f2))


MAX_GRID_AXIS = 1 << 8  # most values, 2 radius/step + 1, of a grid axis


def _grid_half_width(radius, step) -> int:
    """n of the grid axis step * (-n .. n); an axis of more than
    MAX_GRID_AXIS values is rejected unbuilt."""
    n = int(Fraction(radius) / Fraction(step))
    if 2 * n + 1 > MAX_GRID_AXIS:
        raise ValueError(f"grid of radius {radius} and step {step} exceeds "
                         f"{MAX_GRID_AXIS} values per axis, 2 radius/step + 1")
    return n


def _mode_sums(coeffs: list, modes: tuple, N: int) -> dict:
    """Exact boundary entries on the truncated modes, summed by group.

    `coeffs` lists (group, K, m_w, v) in term order: an x^0 coefficient
    v of a term c * D_w^K, times any monomial the caller folds in.  m_w
    shifts each column to its row, rows past N drop out, and D_w^K
    multiplies by col^K.  v is scaled to a Gaussian integer over one
    common denominator, K-factors and in-window pairs are computed once
    each, and a sum of 0 is dropped as `_Sparse.acc` drops it.  Returns
    {(row, col): {group: CxRat}}, groups in accumulation order.
    """
    D = math.lcm(*(x.denominator for *_, v in coeffs for x in (v.re, v.im)))
    kfacs, pairs, sums = {}, {}, {}
    for g, K, mw, v in coeffs:
        if K not in kfacs:
            kfacs[K] = [math.prod(q ** k for q, k in zip(col, K))
                        for col in modes]
        if mw not in pairs:
            pairs[mw] = [(i, (row, col)) for i, col in enumerate(modes)
                         for row in [tuple(q + d for q, d in zip(col, mw))]
                         if all(-N <= r <= N for r in row)]
        kf = kfacs[K]
        vr, vi = (x.numerator * (D // x.denominator) for x in (v.re, v.im))
        for i, key in pairs[mw]:
            if kf[i]:
                ent = sums.setdefault(key, {})
                re, im = ent.get(g, (0, 0))
                re, im = re + vr * kf[i], im + vi * kf[i]
                if re or im:
                    ent[g] = re, im
                else:
                    del ent[g]
    for ent in sums.values():
        for g, (re, im) in ent.items():
            ent[g] = CxRat(Fraction(re, D), Fraction(im, D) if im else ZERO.im)
    return {key: ent for key, ent in sums.items() if ent}


def normal_family_matrix(P: ADiffOp, point, mu, N: int) -> NormalFamilyMatrix:
    """Matrix of the boundary model on fibre modes with sup-norm <= N.

    Coefficients are frozen at the boundary and at the base point; a
    deep-fibre trig factor shifts the column mode, a deep-fibre
    derivative multiplies by (angle * mode).  Truncation must dominate
    the coefficient mode support.  ``_mode_sums`` groups exact entries
    by angle power, and with phases each (term, x^0 coefficient), summed
    in floats in term order.  This exact per-point assembly is the
    reference for the compiled family of the grid sweep.
    """
    t = P.tower
    b, f1, _ = model_dims(t)
    if len(point) != b + f1:
        raise ValueError("base point needs one angle per y and z direction")
    if len(mu) != 1 + b + f1:
        raise ValueError("conormal parameter needs 1 + b + f1 components")
    point = tuple(Fraction(p) for p in point)
    mu = tuple(Fraction(m) for m in mu)
    sy, sz, sw = _mode_slices(t)
    modes = _truncated_modes(t, N, P.terms)
    phases = {m: sum(mi * pi for mi, pi in zip(m[sy], point[:b]))
              + sum(mi * pi for mi, pi in zip(m[sz], point[b:]))
              for _, c in P.terms for (n, m, w) in c if n == 0}
    exact = all(ph.denominator == 1 for ph in phases.values())

    coeffs = []
    for i, ((alpha, I, J, K), c) in enumerate(P.terms):
        base = mu[0] ** alpha
        for x, p in zip(mu[1:], I + J):
            base *= x ** p
        coeffs += [(w + sum(K) if exact else (i, m, w + sum(K)), K, m[sw],
                    v * base) for (n, m, w), v in c.items()
                   if n == 0 and base]
    sums = _mode_sums(coeffs, modes, N)
    if exact:
        entries = {key: PiPoly(ent) for key, ent in sums.items()}
    else:
        entries = {}
        for key, ent in sums.items():
            z = 0j
            for (_, m, wpow), v in ent.items():
                phase = TWO_PI * float(phases[m])
                z += (complex(v.re, v.im) * (TWO_PI ** wpow)
                      * complex(math.cos(phase), math.sin(phase)))
            if z:
                entries[key] = z
    return NormalFamilyMatrix(t, point, mu, N, modes, entries, exact)


def matrix_product(A: NormalFamilyMatrix, B: NormalFamilyMatrix):
    """Exact sparse product of two exact matrices on the same modes."""
    if not (A.exact and B.exact):
        return A.to_array() @ B.to_array()
    bycol = {}
    for (r, c), v in B.entries.items():
        bycol.setdefault(r, []).append((c, v))
    out: dict = {}
    for (r, c), v in A.entries.items():
        for c2, v2 in bycol.get(c, ()):
            key = (r, c2)
            cur = out.get(key, PiPoly())
            out[key] = cur + v * v2
    out = {k: v for k, v in out.items() if v}
    return NormalFamilyMatrix(A.tower, A.point, A.mu, A.N, A.modes, out, True)


def mode_support(P: ADiffOp) -> int:
    """Largest deep-fibre mode magnitude in any coefficient."""
    _, _, sw = _mode_slices(P.tower)
    out = 0
    for _, c in P.terms:
        for (n, m, w) in c:
            out = max(out, max((abs(q) for q in m[sw]), default=0))
    return out


def _window_entries(M, bound: int) -> dict:
    ent = M.entries if isinstance(M, NormalFamilyMatrix) else M
    return {(r, c): v for (r, c), v in ent.items()
            if max((abs(q) for q in r), default=0) <= bound
            and max((abs(q) for q in c), default=0) <= bound}


def multiplicativity_check(P: ADiffOp, Q: ADiffOp, samples,
                           N: int = 4, tol: float = 1e-10) -> dict:
    """Symbol and boundary-family homomorphism identities.

    The symbol identity is a symbolic polynomial equality.  The family
    identity is checked on the sampled (point, mu) pairs, restricted to
    the mode window untouched by truncation clipping (the truncation
    minus both operators' coefficient mode supports); comparisons are
    exact whenever every phase is exact.
    """
    PQ = op_compose(P, Q)
    sym_ok = symbols_equal(principal_symbol(PQ),
                           symbol_mul(principal_symbol(P),
                                      principal_symbol(Q)))
    safe = N - mode_support(P) - mode_support(Q)
    fam_ok = True
    exact_all = True
    for point, mu in samples:
        MA = normal_family_matrix(PQ, point, mu, N)
        MB = matrix_product(normal_family_matrix(P, point, mu, N),
                            normal_family_matrix(Q, point, mu, N))
        if MA.exact and getattr(MB, "exact", False):
            ea = _window_entries(MA, safe)
            eb = _window_entries(MB, safe)
            keys = set(ea) | set(eb)
            if not all(ea.get(k, PiPoly()) == eb.get(k, PiPoly())
                       for k in keys):
                fam_ok = False
        else:
            exact_all = False
            import numpy as np
            idx = {k: i for i, k in enumerate(MA.modes)}
            sel = [i for k, i in idx.items()
                   if max((abs(q) for q in k), default=0) <= safe]
            Aarr = MA.to_array()[np.ix_(sel, sel)]
            Barr = (MB if isinstance(MB, np.ndarray)
                    else MB.to_array())[np.ix_(sel, sel)]
            if not np.allclose(Aarr, Barr, atol=tol, rtol=0):
                fam_ok = False
    return {"symbol_multiplicative": sym_ok,
            "normal_family_multiplicative": fam_ok,
            "exact": exact_all, "window": safe}


# ---------------------------------------------------------------------------
# spectral checks

def laplacian_spectrum_min_distance(t: Tower, lam_re0, lam_re2, lam_im,
                                    N: int, radius=Fraction(10),
                                    step=Fraction(1, 2)):
    """Distance data of the flat model family spectrum to a spectral
    parameter lam = lam_re0 + lam_re2 * (full angle)^2 + i lam_im.

    The family eigenvalues are |mu|^2 + 4 pi^2 |k|^2 and the parameter
    is lam_re0 + lam_re2 pi^2 + i lam_im.  Returns the numeric minimum
    distance over the grid and truncated modes, plus an exact witness
    when the parameter lies on the spectrum (pi^2 being transcendental,
    the rational and pi^2 parts must match separately).
    """
    b, f1, f2 = model_dims(t)
    n = _grid_half_width(radius, step)
    _truncated_modes(t, N)          # rejects an oversized truncation
    import numpy as np
    dim = 1 + b + f1
    axis = np.array([float(Fraction(step) * i) for i in range(-n, n + 1)])
    # the distinct grid values of |mu|^2 and mode values of |k|^2, summed
    # axis by axis in the order a grid sum would use: at most dim * n^2
    # + 1 and f2 * N^2 + 1 values
    mu2, k2 = np.zeros(1), np.zeros(1)
    for _ in range(dim):
        mu2 = np.unique(mu2[:, None] + np.unique(axis * axis)[None, :])
    for _ in range(f2):
        k2 = np.unique(k2[:, None] + np.arange(N + 1.0)[None, :] ** 2)
    lam = complex(float(lam_re0) + float(lam_re2) * math.pi ** 2,
                  float(lam_im))
    eig = mu2[None, :] + (TWO_PI ** 2) * k2[:, None]
    dist = np.abs(eig - lam)
    arg = np.unravel_index(int(np.argmin(dist)), dist.shape)
    witness = None
    if lam_im == 0 and Fraction(lam_re0) >= 0 and Fraction(lam_re2) >= 0:
        # exact membership: need |mu|^2 = lam_re0 and |k|^2 = lam_re2
        step_f = Fraction(step)
        target0 = Fraction(lam_re0)
        grid = [step_f * i for i in range(n + 1)]
        ok0 = _is_sum_of_squares(target0, dim, grid)
        r2 = Fraction(lam_re2) / 4
        # a mode past the square root of |k|^2 cannot be in a witness
        ok2 = (r2.denominator == 1 and _is_sum_of_squares(
            int(r2), f2, range(min(N, math.isqrt(int(r2))) + 1)))
        if ok0 and ok2:
            witness = {"mu_norm_sq": str(target0), "k_norm_sq": str(r2)}
    return {"min_distance": float(dist[arg]),
            "witness": witness}


def _is_sum_of_squares(target, count: int, values) -> bool:
    """Whether target is a sum of `count` squares of the given values.

    Decided on integers in units of the squared common denominator: bit
    s of `sums` is set when s is a sum of the squares chosen so far.
    """
    values = [Fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in values))
    target = Fraction(target) * den * den
    sq = {int(v * den) ** 2 for v in values}
    top = count * max(sq, default=0)
    if target.denominator != 1 or not 0 <= target <= top:
        return False
    target, sums = int(target), 1
    for _ in range(count):
        sums = functools.reduce(operator.or_, (sums << s for s in sq), 0)
        sums &= (2 << target) - 1
    return bool(sums >> target & 1)


def resolvent_model_check(t: Tower, lam_re0, lam_re2, lam_im, N: int = 8,
                          radius=Fraction(10), step=Fraction(1, 2)) -> dict:
    """Invertibility margin of the flat model family at a spectral
    parameter off the half line; parameters on the half line are
    rejected with a witness mode."""
    data = laplacian_spectrum_min_distance(t, lam_re0, lam_re2, lam_im, N,
                                           radius, step)
    lam = complex(float(lam_re0) + float(lam_re2) * math.pi ** 2,
                  float(lam_im))
    if lam.imag == 0 and lam.real >= 0:
        return {"invertible": False, "witness": data["witness"],
                "min_distance": data["min_distance"]}
    d = abs(lam.imag) if lam.real >= 0 else abs(lam)
    ok = data["min_distance"] >= d - 1e-12
    return {"invertible": bool(ok), "margin": d,
            "min_distance": data["min_distance"], "witness": None}


def fully_elliptic_check(P: ADiffOp, lam_re0=0, lam_re2=0, lam_im=0,
                         N: int = 8, radius=Fraction(10),
                         step=Fraction(1, 2)) -> dict:
    """Certificate for a model operator shifted by a spectral parameter.

    Symbol ellipticity is certified exactly for sums of squares and
    sampled on the unit sup-sphere otherwise; the boundary family margin
    is the grid minimum of the smallest singular value.  The model
    Laplacian uses its closed-form spectrum; any other operator is
    compiled once into exact matrix coefficients of the monomials in mu
    and swept in chunks, one batched SVD per chunk.  The witness is the
    first grid point, in ``itertools.product`` order, that attains the
    minimum; it agrees with the exact per-point ``normal_family_matrix``
    path.  No bound covers parameters beyond the grid yet, so the tail
    field reads "grid-only".
    """
    sym = principal_symbol(P)
    sums_of_squares = all(
        all(q % 2 == 0 for q in (mu[0],) + mu[1] + mu[2] + mu[3])
        and len(c) == 1 and next(iter(c.values())).im == 0
        and next(iter(c.values())).re > 0
        for mu, c in sym.terms)
    if sums_of_squares:
        elliptic, symbol_note = True, "exact: positive sum of squares"
    else:
        elliptic = _symbol_nonvanishing_sampled(sym)
        symbol_note = "sampled on the unit sphere"
    if _is_model_laplacian(P):
        data = laplacian_spectrum_min_distance(
            P.tower, lam_re0, lam_re2, lam_im, N, radius, step)
        minsv, witness = data["min_distance"], data["witness"]
    else:
        lam = complex(float(lam_re0) + float(lam_re2) * math.pi ** 2,
                      float(lam_im))
        minsv, witness = _grid_min_singular(P, lam, N, radius, step)
    invertible = minsv > 1e-12
    return {"symbol_elliptic": bool(elliptic),
            "symbol_check": symbol_note,
            "min_singular_value": float(minsv),
            "fully_elliptic": bool(elliptic and invertible),
            "witness": witness,
            "tail": "grid-only"}


# sup-sphere sampling of a top symbol: 7 points per axis, zero among them
_SPHERE_AXIS = tuple(-1 + 2 * i / 6 for i in range(7))
_SYMBOL_TOL = 1e-9


def _symbol_nonvanishing_sampled(sym: SymbolPoly) -> bool:
    """Nonvanishing of the top symbol on a sampled unit sup-sphere.

    Coefficients are frozen at the boundary and the base origin; the
    fibre variables sweep the faces of the sup-norm unit cube.
    """
    t = sym.tower
    nvars = 1 + t.b + t.f[0] + t.f[1]
    # at x = 0 and base point 0 every phase is trivial
    terms = [((mu[0],) + mu[1] + mu[2] + mu[3],
              sum(complex(v.re, v.im) * TWO_PI ** w
                  for (n, _, w), v in c.items() if n == 0))
             for mu, c in sym.terms]
    if sym.degree == 0:
        return bool(abs(sum(v for _, v in terms)) > _SYMBOL_TOL)
    import numpy as np
    # Python's x ** p, then the point loop's products and sums in order
    top = max(max(powers) for powers, _ in terms)
    pw = np.array([[x ** p for x in _SPHERE_AXIS] for p in range(top + 1)])
    n_ax = len(_SPHERE_AXIS)
    chunk = max(1, _SWEEP_CHUNK_BYTES // (16 * nvars))
    for start in range(0, n_ax ** (nvars - 1), chunk):
        idx = np.arange(start, min(n_ax ** (nvars - 1), start + chunk))
        rest = [idx // n_ax ** e % n_ax for e in reversed(range(nvars - 1))]
        for face_var in range(nvars):
            for sign in (0, n_ax - 1):                  # -1.0 and 1.0
                xi = rest[:face_var] + [sign] + rest[face_var:]
                total = np.zeros(len(idx), dtype=complex)
                for powers, v in terms:
                    mono = np.ones(len(idx))
                    for p, x in zip(powers, xi):
                        mono = mono * pw[p][x]
                    total += v * mono
                if np.any(np.hypot(total.real, total.imag) <= _SYMBOL_TOL):
                    return False
    return True


def _is_model_laplacian(P: ADiffOp) -> bool:
    """Whether P is the model Laplacian; a torus mode rules it out early."""
    if any(any(m) for _, c in P.terms for _, m, _ in c):
        return False
    return P.terms == model_laplacian(P.tower).terms


def _compile_family(P: ADiffOp, N: int):
    """The boundary family at base point 0 as a polynomial in mu.

    Every phase is trivial at the base point, so the matrix at
    mu = (tau, eta, zeta) is sum_k (2 pi)^k sum_e mu^e C[k, e], where
    mu^e = tau^alpha eta^I zeta^J runs over the monomials of P's terms.
    Each C[k, e] is the group (k, e) of ``_mode_sums``, converted to one
    complex array; a group that cancels on every entry has none.
    Returns the modes and {k: [(e, C[k, e]), ...]} in increasing k.
    """
    import numpy as np
    _, _, sw = _mode_slices(P.tower)
    modes = _truncated_modes(P.tower, N, P.terms)
    sums = _mode_sums([((w + sum(K), (alpha,) + I + J), K, m[sw], v)
                       for (alpha, I, J, K), c in P.terms
                       for (n, m, w), v in c.items() if n == 0], modes, N)
    idx = {k: i for i, k in enumerate(modes)}
    arrays = {g: np.zeros((len(modes), len(modes)), dtype=complex)
              for g in sorted({g for ent in sums.values() for g in ent})}
    for (r, c), ent in sums.items():
        for g, v in ent.items():
            arrays[g][idx[r], idx[c]] = complex(v.re, v.im)
    family: dict = {}
    for (wpow, e), C in arrays.items():
        family.setdefault(wpow, []).append((e, C))
    return modes, family


# bytes of one stack of family matrices handed to a batched SVD; the sweep
# holds a few stacks of this size at a time, whatever the grid
_SWEEP_CHUNK_BYTES = 1 << 21


def _grid_min_singular(P: ADiffOp, lam: complex, N: int, radius, step):
    """Grid minimum of the family's smallest singular value, and witness."""
    n = _grid_half_width(radius, step)
    import numpy as np
    modes, family = _compile_family(P, N)
    d = len(modes)
    dim = 1 + P.tower.b + P.tower.f[0]
    axis = [Fraction(step) * i for i in range(-n, n + 1)]
    top = max((max(e) for terms in family.values() for e, _ in terms),
              default=0)
    powers = [np.array([float(x ** p) for x in axis]) for p in range(top + 1)]
    grid = np.unravel_index(np.arange(len(axis) ** dim), (len(axis),) * dim)
    shift = lam * np.eye(d, dtype=complex)
    chunk = max(1, _SWEEP_CHUNK_BYTES // (16 * d * d))
    best, witness = math.inf, None
    for start in range(0, len(grid[0]), chunk):
        pts = [g[start:start + chunk] for g in grid]
        A = np.zeros((len(pts[0]), d, d), dtype=complex)
        for wpow, terms in family.items():
            S = np.zeros_like(A)
            for e, C in terms:
                mono = np.ones(len(pts[0]))
                for p, g in zip(e, pts):
                    mono = mono * powers[p][g]
                S += mono[:, None, None] * C
            A += S * TWO_PI ** wpow
        A -= shift
        sv = np.linalg.svd(A, compute_uv=False)[:, -1]
        i = int(np.argmin(sv))
        if sv[i] < best:
            best = float(sv[i])
            witness = {"mu": [str(axis[g[i]]) for g in pts]}
    return best, witness

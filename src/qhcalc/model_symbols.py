"""Exact model operators on flat-torus fibres.

Vector fields and differential operators are kept fully symbolic:
coefficients are Gaussian-rational combinations of boundary-coordinate
powers, torus modes, and powers of the full angle (stored as a formal
symbol, so mode derivatives stay exact).  Lifts through the double-space
blowups, principal symbols, operator composition with commutator
corrections, and truncated fibre-mode matrices of boundary models are
all computed without floating point; numerics appear only in grid
sweeps for invertibility margins.

The fully elliptic sweep compiles the boundary family once: at the base
point 0 every phase is trivial, so the family is a polynomial in the
conormal parameter whose matrix coefficients are assembled exactly, by
the same mode rule as ``normal_family_matrix``, and then converted to
complex arrays.  The grid is then evaluated with numpy in chunks of
bounded size, one batched SVD per chunk, and the witness is the first
grid point, in ``itertools.product`` order, that attains the minimum.
Model operators live on depth-2 towers; other depths are rejected with
a ``ValueError``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .a_spaces import Tower
from .index_algebra import CxRat, cx

TWO_PI = 2.0 * math.pi

I_UNIT = cx(0, 1)
MINUS_I = cx(0, -1)
ONE = cx(1)
ZERO = cx(0)


# ---------------------------------------------------------------------------
# exact coefficients: x-powers, torus modes, powers of the full angle

class Coeff(dict):
    """Map (x power, modes, angle power) -> Gaussian rational.

    Modes run over all torus coordinates in the order (y, z, w); the
    angle symbol stands for the full turn, so a mode derivative in a
    fibre direction multiplies by (angle * mode) exactly.
    """

    def __add__(self, other):
        out = Coeff(self)
        for k, v in other.items():
            s = out.get(k, ZERO) + v
            if s.re == 0 and s.im == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return out

    def __mul__(self, other):
        out = Coeff()
        for (n1, m1, w1), v1 in self.items():
            for (n2, m2, w2), v2 in other.items():
                k = (n1 + n2, tuple(a + b for a, b in zip(m1, m2)), w1 + w2)
                s = out.get(k, ZERO) + v1 * v2
                if s.re == 0 and s.im == 0:
                    out.pop(k, None)
                else:
                    out[k] = s
        return out

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

    def eval_numeric(self, x: float, angles: Sequence[float]) -> complex:
        out = 0j
        for (n, m, w), v in self.items():
            phase = sum(mi * ai for mi, ai in zip(m, angles))
            out += (complex(v.re, v.im) * (x ** n) * (TWO_PI ** w)
                    * complex(math.cos(TWO_PI * phase),
                              math.sin(TWO_PI * phase)))
        return out


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
    if t.k != 2:
        raise ValueError("model operators need tower depth 2")
    return t.b, t.f[0], t.f[1]


def _mode_slices(t: Tower):
    b, f1, f2 = model_dims(t)
    return slice(0, b), slice(b, b + f1), slice(b + f1, b + f1 + f2)


# ---------------------------------------------------------------------------
# differential operators in weighted normal form

MultiIndex = tuple  # (alpha, I, J, K)


def _mi(alpha, I, J, K) -> MultiIndex:
    return (int(alpha), tuple(I), tuple(J), tuple(K))


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
        model_dims(self.tower)

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


def identity_op(t: Tower) -> ADiffOp:
    nb, nf1, nf2 = model_dims(t)
    mu = _mi(0, (0,) * nb, (0,) * nf1, (0,) * nf2)
    return make_op(t, {mu: 1})


def generator(t: Tower, kind: str, index: int = 0) -> ADiffOp:
    """Single weighted generator: kind in {x, y, z, w}."""
    nb, nf1, nf2 = model_dims(t)
    alpha, I, J, K = 0, [0] * nb, [0] * nf1, [0] * nf2
    if kind == "x":
        alpha = 1
    elif kind == "y":
        I[index] = 1
    elif kind == "z":
        J[index] = 1
    elif kind == "w":
        K[index] = 1
    else:
        raise ValueError("kind must be one of x, y, z, w")
    return make_op(t, {_mi(alpha, I, J, K): 1})


def model_laplacian(t: Tower) -> ADiffOp:
    """Sum of squares of all weighted generators (flat product model)."""
    nb, nf1, nf2 = model_dims(t)
    terms = {}
    z0 = _mi(2, (0,) * nb, (0,) * nf1, (0,) * nf2)
    terms[z0] = coeff_const(t, 1)
    for i in range(nb):
        I = [0] * nb
        I[i] = 2
        terms[_mi(0, I, (0,) * nf1, (0,) * nf2)] = coeff_const(t, 1)
    for j in range(nf1):
        J = [0] * nf1
        J[j] = 2
        terms[_mi(0, (0,) * nb, J, (0,) * nf2)] = coeff_const(t, 1)
    for k in range(nf2):
        K = [0] * nf2
        K[k] = 2
        terms[_mi(0, (0,) * nb, (0,) * nf1, K)] = coeff_const(t, 1)
    return make_op(t, terms)


# generator action on coefficients -------------------------------------------

def _gen_xweight(t: Tower, kind: str) -> int:
    a1, a2 = t.orders[1], t.orders[2]
    return {"x": 1 + a1 + a2, "y": a1 + a2, "z": a2, "w": 0}[kind]


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
        s = out.get(k, ZERO) + add
        if s.re == 0 and s.im == 0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def _gen_commutator_with_x(t: Tower, kind: str) -> int:
    """[G, X] = i * (x-weight of G) * x^(a1+a2) * G."""
    return _gen_xweight(t, kind) if kind != "x" else 0


def _lmul_gen(t: Tower, kind: str, index: int, terms: dict) -> dict:
    """Left-multiply a normal-form term dict by one weighted generator."""
    nb = t.b
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
            if kind == "y":
                I = list(I)
                I[index] += 1
            elif kind == "z":
                J = list(J)
                J[index] += 1
            else:
                K = list(K)
                K[index] += 1
            acc(_mi(alpha, I, J, K), c)
            continue
        # commute past the boundary generators: G X^a = X (G X^{a-1})
        # + i g x^{a1+a2} (G X^{a-1})
        inner = _lmul_gen(t, kind, index,
                          {_mi(alpha - 1, I, J, K): coeff_const(t, 1)})
        outer = _lmul_gen(t, "x", 0, inner)
        g = _gen_commutator_with_x(t, kind)
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
        for k in reversed(range(len(K))):
            for _ in range(K[k]):
                cur = _lmul_gen(t, "w", k, cur)
        for j in reversed(range(len(J))):
            for _ in range(J[j]):
                cur = _lmul_gen(t, "z", j, cur)
        for i in reversed(range(len(I))):
            for _ in range(I[i]):
                cur = _lmul_gen(t, "y", i, cur)
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

    def coeff(self, mu) -> Coeff:
        for m, c in self.terms:
            if m == mu:
                return c
        return Coeff()


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

    Terms are (x power, direction kind, coefficient); boundary terms
    need x power at least 1 + a_1 + a_2, base terms a_1 + a_2, middle
    fibre terms a_2, deep fibre terms none.
    """
    a1, a2 = t.orders[1], t.orders[2]
    need = {"x": 1 + a1 + a2, "y": a1 + a2, "z": a2, "w": 0}
    for xpow, kind, _coeff in terms:
        if kind not in need:
            raise ValueError(f"unknown direction kind {kind!r}")
        if xpow < need[kind]:
            return False
    return True


def basis_field(t: Tower, kind: str) -> tuple:
    """Weighted basis field as interior chart terms before any blowup."""
    a1, a2 = t.orders[1], t.orders[2]
    if kind == "x":
        return (_vt(1, a1 + a2, (), "x_dx"),)
    if kind == "y":
        return (_vt(1, a1 + a2, (), "dy"),)
    if kind == "z":
        return (_vt(1, a2, (), "dz"),)
    if kind == "w":
        return (_vt(1, 0, (), "dw"),)
    raise ValueError("kind must be one of x, y, z, w")


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
    """Through the second diagonal blowup (order a2)."""
    sub = {"T": ("cT", a2), "Y": ("cY", a2)}
    expanded = []
    for tm in terms:
        xshift = 0
        mono = []
        for v, p in tm.mono:
            if v in sub:
                nv, d = sub[v]
                xshift += d * p
                mono.append((nv, p))
            else:
                mono.append((v, p))
        expanded.append(_vt(tm.coeff, tm.xpow + xshift, tuple(mono),
                            tm.direction))
    out = []
    for tm in expanded:
        if tm.direction == "x_dx":
            out.append(tm)
            for var, dr in (("cT", "dcT"), ("cY", "dcY"), ("cZ", "dcZ")):
                out.append(_vt(-a2 * tm.coeff, tm.xpow,
                               _mono_mul(tm.mono, ((var, 1),)), dr))
        elif tm.direction == "dT":
            out.append(_vt(tm.coeff, tm.xpow - a2, tm.mono, "dcT"))
        elif tm.direction == "dY":
            out.append(_vt(tm.coeff, tm.xpow - a2, tm.mono, "dcY"))
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
    rows.append(unit("dcT"))
    for i in range(b):
        rows.append(unit(f"dcY{i}"))
    for j in range(f1):
        rows.append(unit(f"dcZ{j}"))
    if include_w:
        for k in range(f2):
            rows.append(unit(f"dw{k}"))
    # tangents of the lifted diagonal
    for i in range(b):
        rows.append(unit(f"dy{i}"))
    for j in range(f1):
        rows.append(unit(f"dz{j}"))
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

class PiPoly(dict):
    """Exact polynomial in the full-angle symbol: power -> Gaussian rational."""

    def __add__(self, other):
        out = PiPoly(self)
        for k, v in other.items():
            s = out.get(k, ZERO) + v
            if s.re == 0 and s.im == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return out

    def __mul__(self, other):
        out = PiPoly()
        for k1, v1 in self.items():
            for k2, v2 in other.items():
                s = out.get(k1 + k2, ZERO) + v1 * v2
                if s.re == 0 and s.im == 0:
                    out.pop(k1 + k2, None)
                else:
                    out[k1 + k2] = s
        return out

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
        idx = {k: i for i, k in enumerate(self.modes)}
        A = np.zeros((len(self.modes), len(self.modes)), dtype=complex)
        for (r, c), v in self.entries.items():
            A[idx[r], idx[c]] = v.numeric() if isinstance(v, PiPoly) else v
        return A

    def is_diagonal(self) -> bool:
        return all(r == c for (r, c) in self.entries)


def _check_truncation(P: ADiffOp, N: int, sw: slice) -> None:
    support = max((abs(q) for _, c in P.terms for (n, m, w) in c if n == 0
                   for q in m[sw]), default=0)
    if support > N:
        raise ValueError(
            f"truncation {N} below coefficient mode support {support}")


def _mode_entries(c: Coeff, K: tuple, modes: tuple, N: int, sw: slice):
    """Boundary entries of one term c * D_w^K on the truncated modes.

    For each x^0 coefficient (m, w) -> v and each column mode, the
    deep-fibre modes of m shift the column to the row mode, rows past the
    truncation are dropped, and D_w^K multiplies by (angle * col)^K.
    Yields (m, row, col, angle power, K-factor, v); entries whose K-factor
    vanishes are skipped.
    """
    dk = sum(K)
    for (n, m, w), v in c.items():
        if n != 0:
            continue
        mw = m[sw]
        for col in modes:
            row = tuple(cc + dd for cc, dd in zip(col, mw))
            if any(abs(r) > N for r in row):
                continue
            kfac = 1
            for q, k in zip(col, K):
                kfac *= q ** k
            if kfac:
                yield m, row, col, w + dk, kfac, v


def normal_family_matrix(P: ADiffOp, point, mu, N: int) -> NormalFamilyMatrix:
    """Matrix of the boundary model on fibre modes with sup-norm <= N.

    Coefficients are frozen at the boundary and at the base point; a
    deep-fibre trig factor shifts the column mode, a deep-fibre
    derivative multiplies by (angle * mode).  Truncation must dominate
    the coefficient mode support.  This exact per-point assembly is the
    reference for the compiled family of the grid sweep.
    """
    t = P.tower
    b, f1, f2 = model_dims(t)
    if len(point) != b + f1:
        raise ValueError("base point needs one angle per y and z direction")
    if len(mu) != 1 + b + f1:
        raise ValueError("conormal parameter needs 1 + b + f1 components")
    point = tuple(Fraction(p) for p in point)
    mu = tuple(Fraction(m) for m in mu)
    sy, sz, sw = _mode_slices(t)
    _check_truncation(P, N, sw)
    phases = {m: sum(mi * pi for mi, pi in zip(m[sy], point[:b]))
              + sum(mi * pi for mi, pi in zip(m[sz], point[b:]))
              for _, c in P.terms for (n, m, w) in c if n == 0}
    exact = all(ph.denominator == 1 for ph in phases.values())

    modes = tuple(itertools.product(range(-N, N + 1), repeat=f2))
    entries: dict = {}
    for (alpha, I, J, K), c in P.terms:
        base = mu[0] ** alpha
        for x, p in zip(mu[1:], I + J):
            base *= x ** p
        if base == 0:
            continue
        for m, row, col, wpow, kfac, v in _mode_entries(c, K, modes, N, sw):
            val = v * (base * kfac)
            if exact:
                ent = entries.setdefault((row, col), PiPoly())
                s = ent.get(wpow, ZERO) + val
                if s.re == 0 and s.im == 0:
                    ent.pop(wpow, None)
                else:
                    ent[wpow] = s
                continue
            phase = float(phases[m])
            ph = complex(math.cos(TWO_PI * phase), math.sin(TWO_PI * phase))
            entries[(row, col)] = entries.get((row, col), 0j) \
                + complex(val.re, val.im) * (TWO_PI ** wpow) * ph
    entries = {k: v for k, v in entries.items() if v}
    return NormalFamilyMatrix(t, point, mu, N, modes, entries, exact)


def matrices_equal(A: NormalFamilyMatrix, B: NormalFamilyMatrix,
                   tol: float = 1e-10) -> bool:
    if A.exact and B.exact:
        keys = set(A.entries) | set(B.entries)
        return all(A.entries.get(k, PiPoly()) == B.entries.get(k, PiPoly())
                   for k in keys)
    return bool(np.allclose(A.to_array(), B.to_array(), atol=tol, rtol=0))


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
    dim = 1 + b + f1
    n = int(Fraction(radius) / Fraction(step))
    axis = np.array([float(Fraction(step) * i) for i in range(-n, n + 1)])
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    mu2 = sum(g * g for g in grids).ravel()
    ks = [np.sum(np.array(k, dtype=float) ** 2)
          for k in itertools.product(range(-N, N + 1), repeat=f2)]
    k2 = np.unique(np.array(ks))
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
        ok0 = _is_grid_norm(target0, dim, radius, step_f)
        r2 = Fraction(lam_re2) / 4
        ok2 = (r2.denominator == 1 and
               _is_mode_norm(int(r2), f2, N))
        if ok0 and ok2:
            witness = {"mu_norm_sq": str(target0), "k_norm_sq": str(r2)}
    return {"min_distance": float(dist[arg]),
            "witness": witness}


def _is_grid_norm(target: Fraction, dim: int, radius, step: Fraction) -> bool:
    n = int(Fraction(radius) / step)
    vals = [step * i for i in range(0, n + 1)]
    sq = [v * v for v in vals]

    def rec(d, rem):
        if rem < 0:
            return False
        if d == 0:
            return rem == 0
        return any(rec(d - 1, rem - s) for s in sq if s <= rem)

    return rec(dim, target)


def _is_mode_norm(target: int, f2: int, N: int) -> bool:
    if f2 == 0:
        return target == 0

    def rec(d, rem):
        if rem < 0:
            return False
        if d == 0:
            return rem == 0
        return any(rec(d - 1, rem - k * k) for k in range(0, N + 1)
                   if k * k <= rem)

    return rec(f2, target)


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
                         step=Fraction(1, 2),
                         analytic_tail: Optional[str] = None) -> dict:
    """Certificate for a model operator shifted by a spectral parameter.

    Symbol ellipticity is certified exactly for sums of squares; the
    boundary family margin is the grid minimum of the smallest singular
    value.  The model Laplacian uses its closed-form spectrum; any other
    operator is compiled once into exact matrix coefficients of the
    monomials in mu and swept in chunks, one batched SVD per chunk.  The
    witness is the first grid point, in ``itertools.product`` order,
    that attains the minimum; it agrees with the exact per-point
    ``normal_family_matrix`` path.  The tail field records whether large
    parameters are covered by an analytic bound or only by the grid.
    """
    t = P.tower
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
    lam = complex(float(lam_re0) + float(lam_re2) * math.pi ** 2,
                  float(lam_im))
    diagonal = _is_w_constant(P)
    if diagonal:
        data = laplacian_spectrum_min_distance(
            t, lam_re0, lam_re2, lam_im, N, radius, step) \
            if _is_model_laplacian(P) else None
        if data is not None:
            minsv = data["min_distance"]
            witness = data["witness"]
        else:
            minsv, witness = _grid_min_singular(P, lam, N, radius, step)
    else:
        minsv, witness = _grid_min_singular(P, lam, N, radius, step)
    invertible = minsv > 1e-12
    return {"symbol_elliptic": bool(elliptic),
            "symbol_check": symbol_note,
            "min_singular_value": float(minsv),
            "fully_elliptic": bool(elliptic and invertible),
            "witness": witness,
            "tail": analytic_tail or "grid-only"}


def _symbol_nonvanishing_sampled(sym: SymbolPoly, steps: int = 7,
                                 tol: float = 1e-9) -> bool:
    """Nonvanishing of the top symbol on a sampled unit sup-sphere.

    Coefficients are frozen at the boundary and the base origin; the
    fibre variables sweep the faces of the sup-norm unit cube.
    """
    t = sym.tower
    nvars = 1 + t.b + t.f[0] + t.f[1]
    if sym.degree == 0:
        vals = [c.eval_numeric(0.0, [0.0] * (t.b + sum(t.f)))
                for _, c in sym.terms]
        return bool(abs(sum(vals)) > tol)
    if steps % 2 == 0:
        steps += 1                 # keep zero on the sampling axis
    axis = [(-1 + 2 * i / (steps - 1)) for i in range(steps)]
    for face_var in range(nvars):
        for sign in (-1.0, 1.0):
            for rest in itertools.product(axis, repeat=nvars - 1):
                xi = list(rest[:face_var]) + [sign] + list(rest[face_var:])
                total = 0j
                for mu, c in sym.terms:
                    powers = (mu[0],) + mu[1] + mu[2] + mu[3]
                    mono = 1.0
                    for p, v in zip(powers, xi):
                        mono *= v ** p
                    total += c.eval_numeric(
                        0.0, [0.0] * (t.b + sum(t.f))) * mono
                if abs(total) <= tol:
                    return False
    return True


def _is_w_constant(P: ADiffOp) -> bool:
    t = P.tower
    _, _, sw = _mode_slices(t)
    return all(all(not any(m[sw]) for (n, m, w) in c)
               for _, c in P.terms)


def _is_model_laplacian(P: ADiffOp) -> bool:
    return P.terms == model_laplacian(P.tower).terms


def _compile_family(P: ADiffOp, N: int):
    """The boundary family at base point 0 as a polynomial in mu.

    Every phase is trivial at the base point, so the matrix at
    mu = (tau, eta, zeta) is sum_k (2 pi)^k sum_e mu^e C[k, e], where
    mu^e = tau^alpha eta^I zeta^J runs over the monomials of P's terms.
    Each C[k, e] is assembled exactly, by the mode rule of
    ``normal_family_matrix``, and then converted to one complex array.
    Returns the modes and {k: [(e, C[k, e]), ...]} in increasing k.
    """
    _, _, sw = _mode_slices(P.tower)
    _check_truncation(P, N, sw)
    modes = tuple(itertools.product(range(-N, N + 1), repeat=P.tower.f[1]))
    exact: dict = {}
    for (alpha, I, J, K), c in P.terms:
        for _, row, col, wpow, kfac, v in _mode_entries(c, K, modes, N, sw):
            ent = exact.setdefault((wpow, (alpha,) + I + J), {})
            ent[(row, col)] = ent.get((row, col), ZERO) + v * kfac
    idx = {k: i for i, k in enumerate(modes)}
    family: dict = {}
    for (wpow, e), ent in sorted(exact.items()):
        C = np.zeros((len(modes), len(modes)), dtype=complex)
        for (r, c), v in ent.items():
            C[idx[r], idx[c]] = complex(v.re, v.im)
        family.setdefault(wpow, []).append((e, C))
    return modes, family


# bytes of one stack of family matrices handed to a batched SVD; the sweep
# holds a few stacks of this size at a time, whatever the grid
_SWEEP_CHUNK_BYTES = 1 << 21


def _grid_min_singular(P: ADiffOp, lam: complex, N: int, radius, step):
    """Grid minimum of the family's smallest singular value, and witness."""
    modes, family = _compile_family(P, N)
    d = len(modes)
    dim = 1 + P.tower.b + P.tower.f[0]
    n = int(Fraction(radius) / Fraction(step))
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

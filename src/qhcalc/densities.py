"""Density weight vectors on the double and triple spaces.

Weights record how a lifted b-density differs from a b-density on the
blown-up space: each blowup of order a whose center has interior rank m
contributes a*m at its front face, and previously acquired weights lift
along the blowdown.  The closed forms are cross-checked against this
first-principles computation, and the composition weight vector on the
triple space is assembled from the projection face tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import a_spaces as asp
from .a_spaces import Tower
from .corner_spaces import Space, center_rank
from .index_algebra import WeightVector, pullback_weights, weights


def gamma(t: Tower) -> tuple:
    """Front-face weights per level: gamma_l = sum of a_i (1 + b + f_1 +
    ... + f_{i-1}) over i = 1..l.  Strictly increasing in l."""
    out = []
    acc = 0
    for i in range(1, t.k + 1):
        acc += t.orders[i] * (1 + t.b + sum(t.f[:i - 1]))
        out.append(acc)
    return tuple(out)


def blowup_weight_vector(space: Space) -> WeightVector:
    """First-principles lifted-b-density weights from the blowup history."""
    w = {f: Fraction(0) for f in space.face_names}
    for st in space.history:
        w[st.label] = sum((w[h] for h in st.center.faces), Fraction(0)) \
            + Fraction(st.order * st.rank)
    return WeightVector(w)


@dataclass(frozen=True)
class DoubleWeights:
    w_a0: WeightVector      # lifts of b-densities on the square
    w_a: WeightVector       # the composition-normalized bundle
    w_tilde: WeightVector   # lifts of the rescaled densities of both factors


@lru_cache(maxsize=1024)
def double_weights(t: Tower) -> DoubleWeights:
    """Closed-form double-space weights, with the lifted-b-density vector
    verified against the cumulative blowup computation."""
    if t.k != 2:
        raise ValueError("double weights are tabulated for depth 2")
    gy, gz = gamma(t)
    w_a0 = weights(ff_zy=Fraction(gy), ff_z=Fraction(gz))
    w_a = weights(ff_zy=Fraction(-gy), ff_z=Fraction(-gz))
    w_tilde = weights(rf=Fraction(-gz), lf=Fraction(-gz),
                      ff_zx=Fraction(-2 * gz),
                      ff_zy=Fraction(-2 * gz + gy),
                      ff_z=Fraction(-gz))
    first = blowup_weight_vector(asp.double_space(t).space)
    if first != w_a0:
        raise AssertionError(
            f"double-space weight cross-check failed: {first.assignment} "
            f"vs {w_a0.assignment}")
    return DoubleWeights(w_a0, w_a, w_tilde)


@dataclass(frozen=True)
class TripleWeights:
    W_a0: WeightVector
    W_a: WeightVector
    w0: WeightVector        # half the double-space weight difference


def expected_triple_w_a0(t: Tower) -> WeightVector:
    gy, gz = gamma(t)
    out = {"V_y": 2 * gy, "V_z": 2 * gz}
    for i in (1, 2, 3):
        out[f"G_{{{i},y}}"] = gy
        out[f"E_{{{i},y}}"] = gy
        out[f"F_{{{i},z}}"] = gy + gz
        out[f"G_{{{i},z}}"] = gz
        out[f"E_{{{i},z}}"] = gz
    return WeightVector({k: Fraction(v) for k, v in out.items()})


def cross_checked_w_a(t: Tower) -> WeightVector:
    """The composition weight vector pinned by the closed-form check:
    (-gamma_y, 0, 0; -gamma_z, -gamma_y, 0, 0) over the V_y, G_y, E_y;
    V_z, F_z, G_z, E_z front-face groups."""
    gy, gz = gamma(t)
    out = {"V_y": Fraction(-gy), "V_z": Fraction(-gz)}
    for i in (1, 2, 3):
        out[f"F_{{{i},z}}"] = Fraction(-gy)
    return WeightVector(out)


def displayed_w_a(t: Tower) -> WeightVector:
    """The value this weight vector is usually displayed as, which
    differs from its own intermediate arithmetic in the signs of the
    V_z and F_z entries.  Kept only for the discrepancy report."""
    gy, gz = gamma(t)
    out = {"V_y": Fraction(-gy), "V_z": Fraction(gz)}
    for i in (1, 2, 3):
        out[f"F_{{{i},z}}"] = Fraction(gy)
    return WeightVector(out)


def triple_w_a0(t: Tower) -> WeightVector:
    """Cumulative blowup weights on the triple space for this tower.

    The canonical construction supplies the combinatorics (centers and
    their merge data); the tower supplies orders and dimensions for each
    step's contribution.
    """
    space = asp.canonical_triple().space
    dims = dict(t.level_dims())
    dims[-1] = 1
    w = {f: Fraction(0) for f in space.face_names}
    for st in space.history:
        if st.label.endswith(",y}") or st.label == "V_y":
            order = t.orders[1]
        elif st.label.endswith(",z}") or st.label == "V_z":
            order = t.orders[2]
        else:
            order = 1
        rank = center_rank(space, st.center, dims)
        w[st.label] = sum((w[h] for h in st.center.faces), Fraction(0)) \
            + Fraction(order * rank)
    return WeightVector(w)


@lru_cache(maxsize=1024)
def triple_weights(t: Tower) -> TripleWeights:
    """Triple-space weights from first principles.

    W_a0 comes from cumulative blowup ranks and must match the expected
    group pattern (2 gamma_y, gamma_y, gamma_y; 2 gamma_z, gamma_y +
    gamma_z, gamma_z, gamma_z).  W_a is W_a0 plus the sum of the
    pullbacks of half the double-space weight difference along the three
    projections; the result must equal the cross-checked closed form.
    """
    W_a0 = triple_w_a0(t)
    if W_a0 != expected_triple_w_a0(t):
        raise AssertionError("triple-space weight cross-check failed")
    dw = double_weights(t)
    w0 = WeightVector({f: (dw.w_a[f] - dw.w_a0[f]) / 2
                       for f in asp.double_face_names(2)})
    W_a = W_a0
    for proj in asp.triple_projection_tables():
        W_a = W_a + pullback_weights(proj, w0)
    if W_a != cross_checked_w_a(t):
        raise AssertionError("pullback-sum weight vector does not match "
                             "the cross-checked closed form")
    return TripleWeights(W_a0, W_a, w0)


def weight_discrepancy_report(t: Tower) -> str:
    """Both candidate composition weight vectors, printed side by side.

    The adopted value follows the intermediate pullback-sum arithmetic
    and the closed-form composition cross-check; the usually displayed
    value it disagrees with is reproduced verbatim next to it.
    """
    tw = triple_weights(t)
    disp = displayed_w_a(t)
    lines = ["composition weight vector on the triple space:",
             f"  adopted (pullback sum, closed-form checked): "
             f"{_fmt(tw.W_a)}",
             f"  usually displayed form:                      "
             f"{_fmt(disp)}",
             "  the two differ in the signs of the V_z and F_{i,z} "
             "entries; the adopted value is the one consistent with the "
             "displayed closed form for composed index families."]
    return "\n".join(lines)


def _fmt(w: WeightVector) -> str:
    items = [f"{f}: {v}" for f, v in sorted(w.assignment.items())]
    return "{" + ", ".join(items) + "}"

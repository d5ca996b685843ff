"""Density weight vectors on the double and triple spaces, in closed form.

Weights record how a lifted b-density differs from a b-density on the
blown-up space: each blowup of order a whose center has interior rank m
contributes a*m at its front face, and previously acquired weights lift
along the blowdown.  This module states the results of that computation
as closed forms in the front-face weights gamma_l and needs no corner
engine.  ``a_spaces.verify_facemaps`` (``facemap verify``) compares them
with the engine's blowup weights and, for the composition weight vector,
with the pullback sum along the replayed triple projections.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .index_algebra import WeightVector
from .tower import (Tower, double_face_names, family_name, require_depth_2,
                    stage_name)


def gamma(t: Tower) -> tuple:
    """Front-face weights per level: gamma_l = sum of a_i (1 + b + f_1 +
    ... + f_{i-1}) over i = 1..l.  Strictly increasing in l."""
    out = []
    acc = 0
    for i in range(1, t.k + 1):
        acc += t.orders[i] * (1 + t.b + sum(t.f[:i - 1]))
        out.append(acc)
    return tuple(out)


@dataclass(frozen=True)
class DoubleWeights:
    w_a0: WeightVector      # lifts of b-densities on the square
    w_a: WeightVector       # the composition-normalized bundle
    w_tilde: WeightVector   # lifts of the rescaled densities of both factors


@lru_cache(maxsize=1024)
def double_weights(t: Tower) -> DoubleWeights:
    """Closed-form double-space weights.

    With gamma_0 = 0: w_a0 is gamma_j on ff_j, w_a = -w_a0, and w_tilde
    is -gamma_k on rf and lf and gamma_j - 2 gamma_k on ff_j.
    """
    require_depth_2(t, "weights")
    g = (0,) + gamma(t)
    ffs = double_face_names(t.k)[2:]
    w_a0 = WeightVector(dict(zip(ffs, g)))
    w_a = -w_a0
    w_tilde = WeightVector({"rf": -g[-1], "lf": -g[-1],
                            **{ff: gj - 2 * g[-1] for ff, gj in zip(ffs, g)}})
    return DoubleWeights(w_a0, w_a, w_tilde)


@dataclass(frozen=True)
class TripleWeights:
    W_a0: WeightVector
    W_a: WeightVector
    w0: WeightVector        # half the double-space weight difference


def expected_triple_w_a0(t: Tower) -> WeightVector:
    """With gamma_0 = 0: V_l gets 2 gamma_l, the family new at level l
    gets gamma_{l-1} + gamma_l, and a lifted family gets gamma_l."""
    g = (0,) + gamma(t)
    out = {}
    for l in range(1, t.k + 1):
        out[f"V_{stage_name(l)}"] = 2 * g[l]
        for c in range(l + 1):
            for i in (1, 2, 3):
                out[family_name(c, i, l)] = g[l] + (g[l - 1] if c == l else 0)
    return WeightVector(out)


def cross_checked_w_a(t: Tower) -> WeightVector:
    """The composition weight vector pinned by the closed-form check:
    with gamma_0 = 0, V_l gets -gamma_l and the family new at level l
    gets -gamma_{l-1}; every other face gets 0."""
    g = (0,) + gamma(t)
    out = {}
    for l in range(1, t.k + 1):
        out[f"V_{stage_name(l)}"] = -g[l]
        for i in (1, 2, 3):
            out[family_name(l, i, l)] = -g[l - 1]
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


@lru_cache(maxsize=1024)
def triple_weights(t: Tower) -> TripleWeights:
    """Closed-form triple-space weights: W_a0 is ``expected_triple_w_a0``
    and W_a, which is W_a0 plus the sum of the pullbacks of w0 along the
    three projections, is ``cross_checked_w_a``."""
    dw = double_weights(t)
    w0 = WeightVector({f: (dw.w_a[f] - dw.w_a0[f]) / 2
                       for f in double_face_names(t.k)})
    return TripleWeights(expected_triple_w_a0(t), cross_checked_w_a(t), w0)


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

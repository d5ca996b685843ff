"""Density weight vectors on the double and triple spaces, in closed form.

Weights record how a lifted b-density differs from a b-density on the
blown-up space: each blowup of order a whose center has interior rank m
contributes a*m at its front face, and previously acquired weights lift
along the blowdown.  This module states the results of that computation
at every tower depth by one rule in the front-face weights gamma_l, with
gamma_0 = gamma_{-1} = 0: on the double space ff_l gets gamma_l; on the
triple space V_l gets 2 gamma_l and the family new at level c, lifted to
level l, gets gamma_l + gamma_{c-1}.  It needs no corner engine.
``a_spaces.verify_facemaps`` (``facemap verify``) compares the rule with
the engine's blowup weights and, for the composition weight vector, with
the pullback sum along the replayed triple projections.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .index_algebra import WeightVector
from .tower import (Tower, double_face_names, family_name, require_unit_a0,
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
    """Closed-form double-space weights at any depth.

    With gamma_0 = 0: w_a0 is gamma_j on ff_j, w_a = -w_a0, and w_tilde
    is -gamma_k on rf and lf and gamma_j - 2 gamma_k on ff_j.
    """
    require_unit_a0(t)
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
    """Closed-form triple-space weights at any depth, by one rule.

    With gamma_0 = gamma_{-1} = 0: in W_a0, V_l gets 2 gamma_l and the
    family new at level c, lifted to level l, gets gamma_l + gamma_{c-1};
    in W_a, which is W_a0 plus the sum of the pullbacks of w0 along the
    three projections, V_l gets -gamma_l and that family -gamma_{c-1}.
    """
    g = (0,) + gamma(t)
    W_a0, W_a = {}, {}
    for l in range(t.k + 1):
        v = f"V_{stage_name(l)}"
        W_a0[v], W_a[v] = 2 * g[l], -g[l]
        for c in range(l + 1):
            g_c = g[c - 1] if c else 0         # gamma_{c-1}
            for f in (family_name(c, i, l) for i in (1, 2, 3)):
                W_a0[f], W_a[f] = g[l] + g_c, -g_c
    # w0 = (w_a - w_a0) / 2, and w_a = -w_a0
    w0 = double_weights(t).w_a
    return TripleWeights(WeightVector(W_a0), WeightVector(W_a), w0)


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

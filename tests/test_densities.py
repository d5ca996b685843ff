"""Weight vectors: closed forms against cumulative blowup counts."""

import functools
import itertools
import random
from types import SimpleNamespace

import pytest

from qhcalc import a_spaces as asp
from qhcalc import corner_spaces as cs
from qhcalc import densities as dn
from qhcalc.a_spaces import Tower, double_face_names, family_name, stage_name
from qhcalc.index_algebra import WeightVector, pullback_weights

T = Tower(2, (1, 1, 1), 1, (1, 1))
DEPTH_TWO_SWEEP = [Tower(2, (1, a1, a2), b, (f1, f2))
                   for a1, a2, b, f1, f2 in itertools.product(
                       (1, 3), (1, 2), (0, 2), (0, 1), (0, 2))]


def blowup_weight_vector(space) -> WeightVector:
    """First-principles lifted-b-density weights from the blowup history."""
    return WeightVector(cs.blowup_weights(space))


def engine_triple_weights(t: Tower):
    """(W_a0, W_a) of a tower by the engine: the canonical triple space's
    blowup history re-weighted with the tower's orders and dimensions,
    plus the pullbacks of w0 along the replayed projections."""
    tables = asp.triple_projection_tables()
    W_a0 = WeightVector(cs.blowup_weights(tables[0].domain, t.orders,
                                          {-1: 1, **t.level_dims()}))
    w0 = dn.triple_weights(t).w0
    return W_a0, sum((pullback_weights(p, w0) for p in tables), W_a0)


def test_gamma_examples():
    assert dn.gamma(T) == (2, 5)
    assert dn.gamma(Tower(2, (1, 2, 3), 0, (2, 1))) == (2, 11)
    assert dn.gamma(Tower(2, (1, 1, 1), 0, (0, 0))) == (1, 2)


def test_gamma_strictly_increasing():
    for a1, a2, b, f1 in itertools.product((1, 3), (2, 5), (0, 2), (0, 4)):
        g = dn.gamma(Tower(2, (1, a1, a2), b, (f1, 1)))
        assert g[0] < g[1]


def test_gamma_closed_form_equals_cumulative_sweep():
    # exhaustive small sweep: closed form vs blowup-count computation
    for a1, a2 in itertools.product(range(1, 6), range(1, 6)):
        for b, f1 in itertools.product(range(0, 5), range(0, 5)):
            t = Tower(2, (1, a1, a2), b, (f1, 1))
            w = blowup_weight_vector(asp.double_space(t).space)
            gy, gz = dn.gamma(t)
            assert w["ff_zy"] == gy and w["ff_z"] == gz and w["ff_zx"] == 0


def test_double_weights_tables():
    dw = dn.double_weights(T)
    assert dw.w_a0["ff_zy"] == 2 and dw.w_a0["ff_z"] == 5
    assert dw.w_a["ff_zy"] == -2 and dw.w_a["ff_z"] == -5
    assert dw.w_tilde["ff_zy"] == -8      # -2 gamma_z + gamma_y
    assert dw.w_tilde["rf"] == dw.w_tilde["lf"] == -5
    assert dw.w_tilde["ff_zx"] == -10
    # integrality
    for w in (dw.w_a0, dw.w_a, dw.w_tilde):
        assert all(v.denominator == 1 for v in w.assignment.values())


def test_triple_weights_and_discrepancy():
    tw = dn.triple_weights(T)
    assert tw.W_a0["V_z"] == 10 and tw.W_a0["V_y"] == 4
    assert tw.W_a0["F_{1,z}"] == 7
    assert tw.w0["ff_zy"] == -2 and tw.w0["ff_z"] == -5
    assert tw.W_a["F_{2,z}"] == -2 and tw.W_a["V_z"] == -5
    assert tw.W_a["G_{1,z}"] == 0 and tw.W_a["E_{2,y}"] == 0
    disp = dn.displayed_w_a(T)
    assert disp["V_z"] == 5 and tw.W_a["V_z"] == -5
    report = dn.weight_discrepancy_report(T)
    assert "adopted" in report and "displayed" in report


def test_triple_weights_match_full_construction():
    # the re-weighted canonical history and a from-scratch construction
    # both give the closed form
    for t in (T, Tower(2, (1, 2, 1), 0, (1, 2))):
        trip = asp.triple_space(t)
        full = blowup_weight_vector(trip.space)
        assert full == engine_triple_weights(t)[0] == dn.triple_weights(t).W_a0


def test_reweighted_history_matches_each_tower():
    # one cumulative loop: the unit-order double space, re-weighted with
    # a tower's orders and dimensions, gives that tower's own weights
    for k in range(4):
        for a in itertools.product((1, 2, 3), repeat=k):
            t = Tower(k, (1,) + a, 1, (2,) + (0, 1)[:k - 1] if k else ())
            unit = asp.double_space(Tower(k, (1,) * (k + 1), t.b, t.f))
            got = cs.blowup_weights(unit.space, t.orders,
                                    {-1: 1, **t.level_dims()})
            assert got == cs.blowup_weights(asp.double_space(t).space), t


def test_closed_forms_on_the_depth_two_sweep():
    # gamma_0 = 0: V_l 2 gamma_l, new family gamma_{l-1} + gamma_l,
    # lifted family gamma_l; W_a puts -gamma_l on V_l, -gamma_{l-1} on
    # the new family
    for t in DEPTH_TWO_SWEEP:
        gy, gz = dn.gamma(t)
        W_a0, W_a = engine_triple_weights(t)
        assert W_a0["V_z"] == 2 * gz and W_a0["F_{2,z}"] == gy + gz
        assert W_a0["G_{1,y}"] == gy and W_a0["E_{3,z}"] == gz
        assert W_a0["E_{1,x}"] == 0 and W_a["F_{1,z}"] == -gy
        tw = dn.triple_weights(t)
        assert (W_a0, W_a) == (tw.W_a0, tw.W_a)
        dw = dn.double_weights(t)
        assert dw.w_tilde["ff_zy"] == gy - 2 * gz and dw.w_a["ff_z"] == -gz
        assert blowup_weight_vector(asp.double_space(t).space) == dw.w_a0


# ---------------------------------------------------------------------------
# the weight rule for every tower of a depth, by one symbolic replay
#
# Weights are polynomials in a_l, b and f_l, and the face combinatorics of
# a replay does not depend on them, so re-weighting the unit-order history
# over symbols proves the rule for every tower whose replay has that
# history.

def weight_rule(k: int, g, lifted_gets_gamma_l=False):
    """(w_a0, W_a0, W_a) by the rule, from gamma_1..gamma_k, with gamma_0
    = gamma_{-1} = 0: ff_l gets gamma_l; V_l gets 2 gamma_l and -gamma_l;
    the family new at level c, lifted to level l, gets gamma_l +
    gamma_{c-1} and -gamma_{c-1}.  ``lifted_gets_gamma_l`` drops
    gamma_{c-1} from a lifted family (c < l), which holds to depth 2
    only."""
    g = (0,) + tuple(g)
    W_a0, W_a = {}, {}
    for l in range(k + 1):
        W_a0[f"V_{stage_name(l)}"], W_a[f"V_{stage_name(l)}"] = 2 * g[l], -g[l]
        for c in range(l + 1):
            lifted = c < l and lifted_gets_gamma_l
            g_c = g[c - 1] if c and not lifted else 0
            for i in (1, 2, 3):
                W_a0[family_name(c, i, l)] = g[l] + g_c
                W_a[family_name(c, i, l)] = -g_c
    return dict(zip(double_face_names(k)[2:], g)), W_a0, W_a


def unit_tower(k: int) -> Tower:
    return Tower(k, (1,) * (k + 1), 1, (1,) * k)


def _combinatorics(space):
    """What a re-weighting reads of a replay, apart from orders and
    dimensions: step labels and centers, face merges and strata."""
    return (tuple((f.name, f.center) for f in space.history),
            tuple((f.name, f.merged) for f in space.faces), space.strata)


@functools.lru_cache(maxsize=None)
def symbolic_weights(k: int):
    """gamma and (w_a0, W_a0, W_a) of the unit-order depth-k double and
    top-stage triple replays, re-weighted over a_0 = 1, positive integer
    a_1..a_k and nonnegative integer b, f_1..f_k.  W_a adds to W_a0 the
    pullbacks of w0 = w_a = -w_a0 along the three replayed projections."""
    sympy = pytest.importorskip("sympy")
    a = sympy.symbols(f"a1:{k + 1}", integer=True, positive=True)
    b = sympy.Symbol("b", integer=True, nonnegative=True)
    f = sympy.symbols(f"f1:{k + 1}", integer=True, nonnegative=True)
    orders, dims = (1,) + a, {-1: 1, **dict(enumerate((b,) + f))}
    g = dn.gamma(SimpleNamespace(k=k, orders=orders, b=b, f=f))
    trip = asp.triple_space(unit_tower(k), stage_name(k))
    w_a0 = cs.blowup_weights(asp.double_space(unit_tower(k)).space, orders,
                             dims)
    W_a0 = cs.blowup_weights(trip.space, orders, dims)
    W_a = {h: W_a0[h] + sum(-p.exponent(h, ff) * v for p in trip.projections
                            for ff, v in w_a0.items())
           for h in W_a0}
    return g, (w_a0, W_a0, W_a)


def _off_rule(got: tuple, want: tuple) -> list:
    """(vector, face) wherever two weight vectors differ as polynomials."""
    import sympy
    return [(name, h) for name, x, y in zip(("w_a0", "W_a0", "W_a"), got, want)
            for h in sorted(set(x) | set(y))
            if sympy.expand(x.get(h, 0) - y.get(h, 0)) != 0]


@pytest.mark.parametrize("k", range(5))
def test_weight_rule_is_an_identity_in_the_tower(k):
    g, got = symbolic_weights(k)
    assert _off_rule(got, weight_rule(k, g)) == []


def test_weight_rule_proof_catches_the_lifted_family_mutation():
    # a lifted family with gamma_l in W_a0 and 0 in W_a holds to depth 2;
    # at depth 3 the proof names the faces where it misses gamma_{c-1}
    g, got = symbolic_weights(3)
    faces = ["F_{1,u}", "F_{2,u}", "F_{3,u}"]
    assert _off_rule(got, weight_rule(3, g, lifted_gets_gamma_l=True)) == [
        (vector, h) for vector in ("W_a0", "W_a") for h in faces]


@cs.replay_scope()
def test_weight_rule_premise_and_densities():
    # the proof covers a tower whose double and top-stage triple replays
    # have the unit-order combinatorics; b = 0 and f_l = 0 included.  On
    # each such tower ``densities`` states the proven rule
    rng = random.Random(3)
    depth_three = [Tower(3, (1,) + tuple(rng.randint(1, 3) for _ in range(3)),
                         rng.randint(0, 2),
                         tuple(rng.randint(0, 2) for _ in range(3)))
                   for _ in range(3)]
    shallow = [Tower(0, (1,), 0, ())] + [
        Tower(1, (1, a1), b, (f1,))
        for a1, b, f1 in itertools.product((1, 3), (0, 2), (0, 1))]
    for t in shallow + DEPTH_TWO_SWEEP + depth_three:
        unit = unit_tower(t.k)
        for build in (lambda t: asp.double_space(t).space,
                      lambda t: cs.replay(asp.symmetric_triple_seq(
                          t, stage_name(t.k)))):
            assert _combinatorics(build(t)) == _combinatorics(build(unit)), t
        w_a0, W_a0, W_a = map(WeightVector, weight_rule(t.k, dn.gamma(t)))
        tw = dn.triple_weights(t)
        assert (dn.double_weights(t).w_a0, tw.W_a0, tw.W_a) == (
            w_a0, W_a0, W_a), t

"""Weight vectors: closed forms against cumulative blowup counts."""

import itertools

from fractions import Fraction

from qhcalc import a_spaces as asp
from qhcalc import corner_spaces as cs
from qhcalc import densities as dn
from qhcalc.a_spaces import Tower
from qhcalc.index_algebra import WeightVector, pullback_weights

T = Tower(2, (1, 1, 1), 1, (1, 1))


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
    for a1, a2, b, f1, f2 in itertools.product((1, 3), (1, 2), (0, 2),
                                               (0, 1), (0, 2)):
        t = Tower(2, (1, a1, a2), b, (f1, f2))
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

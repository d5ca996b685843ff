"""Operator classes: composition, mapping, adjoints, parametrix chain."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from qhcalc import index_algebra as ia
from qhcalc import op_calculus as oc
from qhcalc.a_spaces import Tower
from qhcalc.index_algebra import EMPTY, INF, make, windowed_eq
from qhcalc.op_calculus import NEG_INF

T = Tower(2, (1, 1, 1), 1, (1, 1))
W_RE, W_P = Fraction(12), 8


def rand_class(rng, t, order=0):
    def rand_set():
        n = rng.randint(0, 2)
        return ia.normalize([
            ia.term(Fraction(rng.randint(-5, 5), rng.choice([1, 2])), 0,
                    rng.randint(0, 3)) for _ in range(n)])
    return oc.op_class(t, order, rf=rand_set(), lf=rand_set(),
                       ff_zx=rand_set(), ff_zy=rand_set(), ff_z=rand_set())


def test_small_classes():
    s = oc.small(T, 0, 0)
    assert s.is_small and s.family["ff_z"] == make((0, 0))
    r = oc.small(T, NEG_INF, INF)
    assert r.family["ff_z"].is_empty and r.order == NEG_INF
    s2 = oc.small(T, 2, 0)
    assert s2.order == 2


def test_compose_small_examples():
    R = oc.compose(oc.small(T, 1, 0), oc.small(T, -3, 0))
    assert R.order == -2 and R.is_small
    assert R.family["ff_z"] == make((0, 0))


def test_compose_closed_form_example():
    P = oc.op_class(T, 0, lf=make((1, 0)), ff_z=make((0, 0)))
    Q = oc.op_class(T, 0, rf=make((2, 0)), ff_z=make((0, 0)))
    R = oc.compose(P, Q)
    assert windowed_eq(R.family["ff_z"], make((0, 0), (8, 1)), W_RE, W_P)
    assert windowed_eq(oc.ffz_closed_form(P, Q), make((0, 0), (8, 1)),
                       W_RE, W_P)


def test_compose_boundary_case_raises():
    P = oc.op_class(T, 0, rf=make((0, 0)), ff_z=make((0, 0)))
    Q = oc.op_class(T, 0, lf=make((0, 0)), ff_z=make((0, 0)))
    with pytest.raises(oc.NonIntegrable):
        oc.compose(P, Q)
    with pytest.raises(oc.NonIntegrable):
        oc.ffz_closed_form(P, Q)


def test_compose_matches_closed_form_random():
    rng = random.Random(5)
    checked = 0
    while checked < 40:
        a1, a2 = rng.randint(1, 3), rng.randint(1, 3)
        b, f1, f2 = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        t = Tower(2, (1, a1, a2), b, (f1, f2))
        P, Q = rand_class(rng, t), rand_class(rng, t)
        try:
            R = oc.compose(P, Q)
        except oc.NonIntegrable:
            continue
        assert windowed_eq(R.family["ff_z"], oc.ffz_closed_form(P, Q),
                           W_RE, W_P)
        checked += 1


def test_small_calculus_closure_sweep():
    for m, c in ((0, 0), (2, 1), (-1, Fraction(1, 2))):
        for mp, cp in ((1, 0), (-2, 2)):
            R = oc.compose(oc.small(T, m, c), oc.small(T, mp, cp))
            assert R.is_small
            assert R.order == m + mp
            target = make((Fraction(c) + Fraction(cp), 0))
            assert all(ia.contains(target, g)
                       for g in R.family["ff_z"].generators)


def test_act_examples():
    assert oc.act(oc.small(T, 0, 0), make((0, 0))) == make((0, 0))
    P = oc.op_class(T, 0, lf=make((3, 0)), ff_z=make((0, 0)))
    out = oc.act(P, make((0, 0)))
    assert windowed_eq(out, make((0, 0), (3, 1)), W_RE, W_P)
    P2 = oc.op_class(T, 0, lf=make((Fraction(1, 2), 0)), ff_z=make((0, 0)))
    out2 = oc.act(P2, make((0, 0)))
    assert windowed_eq(out2, make((0, 0), (Fraction(1, 2), 0)), W_RE, W_P)
    # empty right face family always integrates
    low = make((-1, 0))
    assert not oc.small(T, 0, 0).family["rf"] and \
        oc.act(oc.small(T, 0, 0), low)


def test_act_raises_at_boundary():
    P = oc.op_class(T, 0, rf=make((0, 0)), ff_z=make((0, 0)))
    with pytest.raises(oc.NonIntegrable):
        oc.act(P, make((0, 0)))


def test_adjoint():
    P = oc.op_class(T, 1, rf=make((1, 0)), lf=make((2, 1)),
                    ff_zy=make((3, 0)))
    A = oc.adjoint(P)
    assert A.family["rf"] == make((2, 1)) and A.family["lf"] == make((1, 0))
    assert A.family["ff_zy"] == make((3, 0))
    assert oc.adjoint(A) == P
    assert oc.adjoint(oc.small(T, 0, 0)) == oc.small(T, 0, 0)


def test_adjoint_antihomomorphism():
    rng = random.Random(17)
    checked = 0
    while checked < 20:
        P, Q = rand_class(rng, T), rand_class(rng, T)
        try:
            left = oc.adjoint(oc.compose(P, Q))
            right = oc.compose(oc.adjoint(Q), oc.adjoint(P))
        except oc.NonIntegrable:
            continue
        assert left.family.windowed_eq(right.family, W_RE, W_P)
        checked += 1


def test_conjugation():
    s = oc.small(T, 3, Fraction(5, 2))
    out, note = oc.conjugate_x(s, Fraction(7, 3))
    assert out == s and "invariant" in note
    P = oc.op_class(T, 0, lf=make((1, 0)), ff_z=make((0, 0)))
    out, note = oc.conjugate_x(P, 1)
    assert out.family["lf"] == make((0, 0))
    assert "derived extension" in note
    out0, _ = oc.conjugate_x(P, 0)
    assert out0 == P


def test_parametrix_ledger():
    for m in (0, 1, 2):
        led = oc.parametrix_ledger(T, m)
        assert led.verify()
        assert len(led.steps) == 5
        orders = [st.output.order for st in led.steps]
        assert orders[0] == -1
        assert orders[1] == NEG_INF
        assert led.steps[2].output.family["ff_z"] == make((1, 0))
        assert led.steps[3].output.family["ff_z"].is_empty


def test_parametrix_power_checks():
    led = oc.parametrix_ledger(T, 2)
    boundary_step = led.steps[2]
    assert len(boundary_step.checks) == 4      # powers 2..5
    assert all(ok for ok, _ in boundary_step.checks)


def test_compact_and_hilbert_schmidt():
    assert oc.compact(1, -1)
    assert not oc.compact(0, -1)
    assert not oc.compact(1, 0)
    assert oc.hilbert_schmidt(3, -3, T)        # gamma_z = 5, dim 4
    assert not oc.hilbert_schmidt(2, -3, T)
    assert not oc.hilbert_schmidt(3, -2, T)


def test_hilbert_schmidt_needs_depth_1():
    # depth 0 has no front-face weight to compare against
    with pytest.raises(ValueError, match="got depth 0"):
        oc.hilbert_schmidt(3, -3, Tower(0, (1,), 1, ()))
    assert oc.hilbert_schmidt(3, -3, Tower(1, (1, 1), 1, (1,)))


def order_convention_identity(t: Tower, m, mp) -> bool:
    """Quarter-power bookkeeping of the composition order.

    Pulling back to the triple space costs a quarter of the dimension
    jump for each factor; the product pushes forward with a quarter of
    the target dimension, recovering the sum of the orders.
    """
    n = Fraction(t.dim)
    m, mp = Fraction(m), Fraction(mp)
    dim2, dim3 = 2 * n, 3 * n
    pulled = (m - Fraction(1, 4) * (dim3 - dim2)) \
        + (mp - Fraction(1, 4) * (dim3 - dim2))
    return pulled + Fraction(1, 4) * dim2 == m + mp


def test_order_convention_identity():
    assert order_convention_identity(T, Fraction(1, 2), Fraction(-3, 4))
    assert order_convention_identity(Tower(2, (1, 2, 3), 2, (0, 1)), 5, 7)


def test_class_serialization_roundtrip():
    rng = random.Random(23)
    for _ in range(10):
        P = rand_class(rng, T, order=rng.randint(-3, 3))
        back = oc.class_from_json(T, oc.class_to_json(P))
        assert back == P
    r = oc.small(T, NEG_INF, INF)
    assert oc.class_from_json(T, oc.class_to_json(r)) == r


def test_compose_all_faces_against_derived_forms():
    # closed forms for the remaining faces, derived from the projection
    # face tables by the same bookkeeping that gives the deepest-face
    # rule; an independent regression guard on the pushforward
    from qhcalc import densities as dn
    from qhcalc.index_algebra import add, ext_union_many, shift

    rng = random.Random(41)
    checked = 0
    while checked < 25:
        t = Tower(2, (1, rng.randint(1, 3), rng.randint(1, 3)),
                  rng.randint(0, 2), (rng.randint(0, 2), rng.randint(0, 2)))
        P, Q = rand_class(rng, t), rand_class(rng, t)
        try:
            R = oc.compose(P, Q)
        except oc.NonIntegrable:
            continue
        checked += 1
        gy, gz = dn.gamma(t)
        I, J = P.family, Q.family
        want = {
            "rf": ext_union_many([
                J["rf"], add(I["rf"], J["ff_zx"]),
                add(I["rf"], J["ff_zy"]), add(I["rf"], J["ff_z"])]),
            "lf": ext_union_many([
                I["lf"], add(J["lf"], I["ff_zx"]),
                add(J["lf"], I["ff_zy"]), add(J["lf"], I["ff_z"])]),
            "ff_zx": ext_union_many([
                add(I["ff_zx"], J["ff_zx"]), add(I["lf"], J["rf"]),
                add(I["ff_zx"], J["ff_zy"]), add(I["ff_zx"], J["ff_z"]),
                add(I["ff_zy"], J["ff_zx"]), add(I["ff_z"], J["ff_zx"])]),
            "ff_zy": ext_union_many([
                add(I["ff_zy"], J["ff_zy"]),
                shift(add(I["lf"], J["rf"]), gy),
                shift(add(I["ff_zx"], J["ff_zx"]), gy),
                add(I["ff_zy"], J["ff_z"]), add(I["ff_z"], J["ff_zy"])]),
        }
        for face, expected in want.items():
            assert windowed_eq(R.family[face], expected, W_RE, W_P), face


# --- the compiled plan against the full pipeline --------------------------

def family_add(E, F):
    if E.faces != F.faces:
        raise ValueError("families live on different face lists")
    return ia.IndexFamily(E.faces, {f: ia.add(E[f], F[f]) for f in E.faces})


def family_shift(E, w):
    """Shift every face's index set by the face's weight."""
    return ia.IndexFamily(E.faces, {f: ia.shift(E[f], w[f]) for f in E.faces})


def pipeline_compose(P, Q):
    """Reference composition by the full triple-space pipeline: pull back
    along pi_3 and pi_1, add, shift by W_a, push forward along pi_2 and
    shift back by w_a."""
    from qhcalc import a_spaces as asp
    from qhcalc import densities as dn

    t = P.tower
    if ia.inf_re(P.family["rf"]) + ia.inf_re(Q.family["lf"]) <= 0:
        raise oc.NonIntegrable(["rf/lf"])
    pi1, pi2, pi3 = asp.triple_projection_tables()
    total = family_add(ia.pullback_family(pi3, P.family),
                       ia.pullback_family(pi1, Q.family))
    total = family_shift(total, dn.triple_weights(t).W_a)
    K, violations = ia.pushforward_family(pi2, total)
    if violations:
        raise oc.NonIntegrable(violations)
    K = family_shift(K, -dn.double_weights(t).w_a)
    return ia.family(oc.DOUBLE_FACES, **K.assignment)


def rand_face_set(rng):
    roll = rng.random()
    if roll < 0.15:
        return EMPTY
    if roll < 0.3:
        return ia.SMOOTH
    return ia.normalize([
        ia.term(Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3])),
                rng.choice([0, 0, 1]), rng.randint(0, 3))
        for _ in range(rng.randint(1, 3))])


def rand_full_class(rng, t):
    return oc.op_class(t, 0, **{f: rand_face_set(rng)
                                for f in oc.DOUBLE_FACES})


def compose_family(P, Q):
    return oc.compose(P, Q).family


def outcome(family_of, P, Q):
    """JSON family of the composite, or the faces it was rejected at."""
    try:
        return ia.family_to_json(family_of(P, Q))
    except oc.NonIntegrable as e:
        return e.faces


def test_compose_matches_pipeline_oracle():
    rng = random.Random(83)
    pool = [Tower(2, (1, a1, a2), b, (f1, f2))
            for a1 in range(1, 4) for a2 in range(1, 4)
            for b in range(4) for f1 in range(4) for f2 in range(4)]
    towers = rng.sample(pool, 16)
    integrable = 0
    for _ in range(160):
        t = rng.choice(towers)
        P, Q = rand_full_class(rng, t), rand_full_class(rng, t)
        want = outcome(pipeline_compose, P, Q)
        assert outcome(compose_family, P, Q) == want
        integrable += isinstance(want, dict)
    assert 40 <= integrable <= 120


def test_compose_matches_pipeline_under_random_weights(monkeypatch):
    # arbitrary weight vectors: the late violation at the faces with a
    # zero pi_2 row (H_2) fires, and every shift of the plan is exercised
    from types import SimpleNamespace

    from qhcalc import a_spaces as asp
    from qhcalc import densities as dn

    rng = random.Random(89)
    triple_faces = asp.triple_projection_tables()[1].domain_faces

    def rand_weights(faces):
        # H_2 leans negative so that it rejects pairs the pre-check passes
        return ia.WeightVector({
            f: Fraction(rng.randint(-8 if f == "H_2" else -4, 4),
                        rng.choice([1, 2])) for f in faces})
    late = runs = 0
    while late < 6:                 # pairs rejected only at H_2
        runs += 1
        W = SimpleNamespace(W_a=rand_weights(triple_faces),
                            w_a=rand_weights(oc.DOUBLE_FACES))
        monkeypatch.setattr(dn, "triple_weights", lambda t: W)
        monkeypatch.setattr(dn, "double_weights", lambda t: W)
        P, Q = rand_full_class(rng, T), rand_full_class(rng, T)
        want = outcome(pipeline_compose, P, Q)
        assert outcome(compose_family, P, Q) == want
        late += want == ("H_2",)
    assert runs >= 40               # and many more compared in full


# The terms of test_compose_all_faces_against_derived_forms and of the
# deepest-face closed form: (P face, Q face, shift), None for no face.
DERIVED_TERMS = {
    "rf": [(None, "rf", "0"), ("rf", "ff_zx", "0"), ("rf", "ff_zy", "0"),
           ("rf", "ff_z", "0")],
    "lf": [("lf", None, "0"), ("ff_zx", "lf", "0"), ("ff_zy", "lf", "0"),
           ("ff_z", "lf", "0")],
    "ff_zx": [("ff_zx", "ff_zx", "0"), ("lf", "rf", "0"),
              ("ff_zx", "ff_zy", "0"), ("ff_zx", "ff_z", "0"),
              ("ff_zy", "ff_zx", "0"), ("ff_z", "ff_zx", "0")],
    "ff_zy": [("ff_zy", "ff_zy", "0"), ("lf", "rf", "gy"),
              ("ff_zx", "ff_zx", "gy"), ("ff_zy", "ff_z", "0"),
              ("ff_z", "ff_zy", "0")],
    "ff_z": [("ff_z", "ff_z", "0"), ("lf", "rf", "gz"),
             ("ff_zx", "ff_zx", "gz"), ("ff_zy", "ff_zy", "gz-gy")],
}


def test_composition_plan_lists_the_derived_terms():
    from qhcalc import densities as dn

    pairs, null, terms = oc.composition_plan()
    t = Tower(2, (1, 2, 3), 1, (2, 1))
    gy, gz = dn.gamma(t)
    shifts = {"0": 0, "gy": gy, "gz": gz, "gz-gy": gz - gy}
    W_a, w_a = dn.triple_weights(t).W_a, dn.double_weights(t).w_a

    def one(faces):
        assert len(faces) <= 1
        return faces[0] if faces else None
    for h, want in DERIVED_TERMS.items():
        got = Counter((one(pf), one(qf), W_a[g] - w_a[h])
                      for g, (pf, qf) in terms[h])
        assert got == Counter((p, q, shifts[s]) for p, q, s in want), h
    assert [g for g, _ in null] == ["H_2"]
    assert null[0][1] == (("rf",), ("lf",))
    # 23 terms over 18 distinct pairs, plus H_2's pair for the check
    assert sum(map(len, terms.values())) == 23 and len(pairs) == 19


def test_composition_needs_depth_2():
    t1 = Tower(1, (1, 2), 1, (1,))
    P = oc.small(t1, 0, 0)
    for fn in (oc.compose, oc.ffz_closed_form):
        with pytest.raises(ValueError, match="needs tower depth 2"):
            fn(P, P)

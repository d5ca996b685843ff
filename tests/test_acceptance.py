"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import random
import time
from fractions import Fraction

from qhcalc import a_spaces as asp
from qhcalc import corner_spaces as cs
from qhcalc import densities as dn
from qhcalc import index_algebra as ia
from qhcalc import model_symbols as ms
from qhcalc import op_calculus as oc
from qhcalc.a_spaces import Tower
from qhcalc.index_algebra import make, windowed_eq

T = Tower(2, (1, 1, 1), 1, (1, 1))


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_exponent_vectors():
    t0 = time.monotonic()
    want = {0: ((0, 1, 1), (1, 0, 1)),
            1: ((0, 1, 1, 1), (1, 0, 1, 1)),
            2: ((0, 1, 1, 1, 1), (1, 0, 1, 1, 1))}
    for k, (el, er) in want.items():
        t = asp.reduce(T, k)
        pl, pr = asp.double_projections(t)
        faces = asp.double_face_names(k)
        assert asp.exponent_vector(pl, faces) == el
        assert asp.exponent_vector(pr, faces) == er
    dt = time.monotonic() - t0
    assert dt < 1.0
    _report(1, f"double projection exponent vectors exact at all three "
               f"levels ({dt:.2f}s)")


def test_criterion_2_face_tables():
    t0 = time.monotonic()
    rep = asp.verify_facemaps(T)
    dt = time.monotonic() - t0
    assert rep["tables"] == 9
    assert rep["mismatches"] == []
    assert dt < 5.0
    _report(2, f"9 face tables (3 stages x 3 projections) match the "
               f"stored references entry for entry ({dt:.2f}s)")


def test_criterion_3_triple_isomorphism():
    t0 = time.monotonic()
    trip = asp.triple_space(T)
    sym, com = trip.space, trip.commuted
    bij = cs.isomorphic(sym, com, incidence="within")
    dt = time.monotonic() - t0
    assert bij is not None and len(bij) == 24
    assert all(k == v for k, v in bij.items())
    # total blowdown data preserved: signatures contain the valuations
    for name in sym.face_names:
        assert sym.face(name).v == com.face(name).v
    assert dt < 10.0
    _report(3, f"symmetric and commuted constructions isomorphic on all "
               f"24 faces ({dt:.2f}s)")


def test_criterion_4_weight_consistency():
    t0 = time.monotonic()
    rng = random.Random(2024)

    def rand_set():
        n = rng.randint(0, 3)
        return ia.normalize([
            ia.term(Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3])), 0,
                    rng.randint(0, 3)) for _ in range(n)])

    checked = 0
    towers = 0
    while checked < 100:
        a1, a2 = rng.randint(1, 3), rng.randint(1, 3)
        b, f1, f2 = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        t = Tower(2, (1, a1, a2), b, (f1, f2))
        towers += 1
        P = oc.op_class(t, 0, rf=rand_set(), lf=rand_set(),
                        ff_zx=rand_set(), ff_zy=rand_set(), ff_z=rand_set())
        Q = oc.op_class(t, 0, rf=rand_set(), lf=rand_set(),
                        ff_zx=rand_set(), ff_zy=rand_set(), ff_z=rand_set())
        try:
            R = oc.compose(P, Q)
        except oc.NonIntegrable:
            continue
        assert windowed_eq(R.family["ff_z"], oc.ffz_closed_form(P, Q),
                           Fraction(12), 8)
        checked += 1
    dt = time.monotonic() - t0
    assert dt < 60.0
    print()
    print(dn.weight_discrepancy_report(T))
    _report(4, f"{checked} random compositions across {towers} towers "
               f"match the closed form at the deepest face ({dt:.2f}s)")


def test_criterion_5_small_closure_and_conjugation():
    for m in (Fraction(0), Fraction(2), Fraction(-1), Fraction(1, 2)):
        for c in (Fraction(0), Fraction(1), Fraction(3, 2)):
            for mp, cp in ((Fraction(1), Fraction(0)),
                           (Fraction(-2), Fraction(2))):
                R = oc.compose(oc.small(T, m, c), oc.small(T, mp, cp))
                assert R.is_small and R.order == m + mp
                target = make((c + cp, 0))
                assert all(ia.contains(target, g)
                           for g in R.family["ff_z"].generators)
                S, note = oc.conjugate_x(oc.small(T, m, c),
                                         Fraction(5, 3))
                assert S == oc.small(T, m, c) and "invariant" in note
    _report(5, "small-calculus composition lands in the predicted class "
               "and conjugation fixes small classes")


def test_criterion_6_parametrix_ledger():
    for m in (0, 1, 2):
        led = oc.parametrix_ledger(T, m)
        assert led.verify()
        chain = [st.output for st in led.steps]
        assert chain[0].order == -1
        assert chain[1].order == oc.NEG_INF
        assert chain[1].family["ff_z"] == make((0, 0))
        assert chain[2].family["ff_z"] == make((1, 0))
        assert chain[3].family["ff_z"].is_empty
        boundary = led.steps[2]
        assert len(boundary.checks) == 4 and all(ok for ok, _ in
                                                 boundary.checks)
    _report(6, "remainder chain reproduced for orders 0, 1, 2 with "
               "powers re-verified through composition up to 5")


def test_criterion_7_lifts_and_transversality():
    # the three displayed pullback identities, as exact term algebra
    out = ms.lift_stage_x((ms._vt(1, 0, (), "x_dx"),))
    assert set((tm.coeff, tm.xpow, tm.mono, tm.direction) for tm in out) \
        == {(Fraction(1), 0, (), "x_dx"),
            (Fraction(-1), 0, (("t", 1),), "dt")}
    a1 = T.orders[1]
    mid = ms.lift_stage_y(ms.lift_stage_x((ms._vt(1, a1, (), "x_dx"),)), a1)
    bp = ms.boundary_part(mid)
    assert [(tm.coeff, tm.direction) for tm in bp] == [(Fraction(1), "dT")]
    top = ms.boundary_part(ms.lift_vf(T, "x", "z"))
    assert [(tm.coeff, tm.direction) for tm in top] == [(Fraction(1), "dcT")]
    # transversality across the criterion-4 tower sweep
    rng = random.Random(2024)
    for _ in range(60):
        t = Tower(2, (1, rng.randint(1, 3), rng.randint(1, 3)),
                  rng.randint(0, 3), (rng.randint(0, 3), rng.randint(0, 3)))
        assert ms.transversality_check(t)
    _report(7, "displayed pullback identities hold exactly and the "
               "lifted basis stays transversal across the tower sweep")


def test_criterion_8_model_ellipticity_and_resolvent():
    t0 = time.monotonic()
    lap = ms.model_laplacian(T)
    cases = [((-1, 0, 0), 1.0), ((0, 0, 1), 1.0),
             ((-3, 0, 2), (9 + 4) ** 0.5)]
    for (re0, re2, im), dist in cases:
        cert = ms.fully_elliptic_check(
            lap, lam_re0=re0, lam_re2=re2, lam_im=im, N=8)
        assert cert["symbol_elliptic"] and cert["fully_elliptic"]
        assert cert["min_singular_value"] >= dist - 1e-12
    for re0, re2 in ((0, 0), (0, 4)):
        r = ms.resolvent_model_check(T, re0, re2, 0, N=8)
        assert not r["invertible"] and r["witness"] is not None
    dt = time.monotonic() - t0
    assert dt < 60.0
    _report(8, f"model operator certified for the three off-spectrum "
               f"parameters and rejected on the spectrum with witnesses "
               f"({dt:.2f}s)")


def test_criterion_9_multiplicativity_and_kernel_coeffs():
    rng = random.Random(7)

    def rand_op(t, w_only=True):
        nm = t.b + sum(t.f)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            parts = [0, 0, 0, 0]
            for _ in range(rng.randint(0, 2)):
                parts[rng.randint(0, 3)] += 1
            f1d, f2d = t.f
            mu = (parts[0],
                  tuple([parts[1]] + [0] * (t.b - 1)) if t.b else (),
                  tuple([parts[2]] + [0] * (f1d - 1)) if f1d else (),
                  tuple([parts[3]] + [0] * (f2d - 1)) if f2d else ())
            modes = [0] * nm
            if w_only and f2d and rng.random() < 0.5:
                modes[nm - 1] = rng.randint(-1, 1)
            c = ms.Coeff({(rng.randint(0, 1), tuple(modes), 0):
                          ia.cx(Fraction(rng.randint(-3, 3),
                                         rng.choice([1, 2])),
                                Fraction(rng.randint(-2, 2)))})
            if not c.is_zero():
                terms[mu] = terms.get(mu, ms.Coeff()) + c
        if not terms:
            terms = {(0, (0,) * t.b, (0,) * t.f[0], (0,) * t.f[1]):
                     ms.coeff_const(t, 1)}
        return ms.make_op(t, terms)

    for _ in range(50):
        f2 = rng.randint(1, 2)
        t = Tower(2, (1, rng.randint(1, 2), rng.randint(1, 2)), 1, (1, f2))
        P, Q = rand_op(t), rand_op(t)
        mu = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)),
              Fraction(rng.randint(-2, 2), 2))
        out = ms.multiplicativity_check(P, Q, [((0,) * (1 + 1), mu)],
                                        N=4 if f2 == 1 else 3)
        assert out["symbol_multiplicative"]
        assert out["normal_family_multiplicative"]
        assert out["exact"]
    res = ms.kernel_coeff_check(ms.model_laplacian(T))
    assert res["lift_corrections_vanish"]
    assert len(res["leading_coefficients"]) == 4
    for _ in range(20):
        P = rand_op(T)
        r = ms.kernel_coeff_check(P)
        assert r["lift_corrections_vanish"]
        for mu_i, c in r["leading_coefficients"].items():
            assert c == P.coeff(mu_i).at_x0()
    _report(9, "symbol and boundary-family homomorphism identities exact "
               "on 50 pairs; kernel coefficients match on the model and "
               "20 random operators")


def test_criterion_10_index_algebra_laws():
    t0 = time.monotonic()
    rng = random.Random(10)
    W_RE, W_P = Fraction(10), 6

    def rand_set():
        n = rng.randint(0, 4)
        return ia.normalize([
            ia.term(Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3])),
                    Fraction(rng.choice([0, 0, 1, -1])),
                    rng.randint(0, 3)) for _ in range(n)])

    for _ in range(200):
        G = rand_set()
        gens = list(G.generators)
        rng.shuffle(gens)
        assert ia.normalize(gens) == G                      # idempotent
        H = rand_set()
        assert ia.add(G, H) == ia.add(H, G)                 # commutative
        assert ia.ext_union(G, H) == ia.ext_union(H, G)
        if not G.is_empty and not H.is_empty:
            assert ia.inf_re(ia.add(G, H)) == ia.inf_re(G) + ia.inf_re(H)
    for _ in range(220):
        G, H, K = rand_set(), rand_set(), rand_set()
        left = ia.ext_union(ia.ext_union(G, H), K)
        right = ia.ext_union(G, ia.ext_union(H, K))
        assert ia.windowed_eq(left, right, W_RE, W_P)       # associativity

    class Perm:
        domain_faces = ("A", "B", "C")
        codomain_faces = ("A", "B", "C")

        def exponent(self, g, h):
            return 1 if {("A", "B"), ("B", "C"), ("C", "A")} >= {(g, h)} \
                else 0

    f = Perm()
    for _ in range(100):
        E = ia.family(("A", "B", "C"), A=rand_set(), B=rand_set(),
                      C=rand_set())
        back, _ = ia.pushforward_family(f, ia.pullback_family(f, E))
        assert back.windowed_eq(E, W_RE, W_P)
    dt = time.monotonic() - t0
    assert dt < 30.0
    _report(10, f"index algebra law suite exact, including extended-union "
                f"associativity on 220 windowed triples ({dt:.2f}s)")

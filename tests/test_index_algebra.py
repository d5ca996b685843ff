"""Index set arithmetic against the windowed-closure oracle.

The oracle materializes closures directly from the defining rules
(closure_window) and recomputes every operation set-theoretically on the
materialized windows, independent of the generator-level algebra.
"""

from fractions import Fraction
import random

import pytest

from qhcalc import index_algebra as ia
from qhcalc.index_algebra import (EMPTY, INF, SMOOTH, add, closure_window,
                                  contains, cx, divide, ext_union, family,
                                  inf_re, make, normalize, pullback_family,
                                  pushforward_family, shift, term,
                                  windowed_eq)

W_RE, W_P = Fraction(10), 6


class StubMap:
    """Minimal b-map data: face lists plus an exponent matrix."""

    def __init__(self, dom, cod, entries):
        self.domain_faces = tuple(dom)
        self.codomain_faces = tuple(cod)
        self._e = entries

    def exponent(self, g, h):
        return self._e.get((g, h), 0)


def rand_indexset(rng, max_terms=4):
    n = rng.randint(0, max_terms)
    ts = []
    for _ in range(n):
        re = Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3]))
        im = Fraction(rng.choice([0, 0, 0, 1, -1]))
        ts.append(term(re, im, rng.randint(0, 3)))
    return normalize(ts)


# --- oracles -------------------------------------------------------------

def oracle_add(G, H, re_max, p_max):
    if G.is_empty or H.is_empty:
        return frozenset()
    lo_g, lo_h = inf_re(G), inf_re(H)
    wg = closure_window(G, re_max - lo_h, p_max)
    wh = closure_window(H, re_max - lo_g, p_max)
    out = set()
    for (r1, i1, p1) in wg:
        for (r2, i2, p2) in wh:
            if r1 + r2 <= re_max and p1 + p2 <= p_max:
                out.add((r1 + r2, i1 + i2, p1 + p2))
    return frozenset(out)


def oracle_ext_union(G, H, re_max, p_max):
    return window_ext_union(closure_window(G, re_max, p_max),
                            closure_window(H, re_max, p_max), p_max)


def window_ext_union(wg, wh, p_max):
    out = set(wg) | set(wh)
    zs_g = {}
    zs_h = {}
    for (r, i, p) in wg:
        zs_g[(r, i)] = max(zs_g.get((r, i), -1), p)
    for (r, i, p) in wh:
        zs_h[(r, i)] = max(zs_h.get((r, i), -1), p)
    for z in set(zs_g) & set(zs_h):
        top = zs_g[z] + zs_h[z] + 1
        for q in range(0, min(top, p_max) + 1):
            out.add((z[0], z[1], q))
    return frozenset(out)


# --- stated examples -----------------------------------------------------

def test_normalize_examples():
    assert normalize([]) == EMPTY
    assert normalize([term(0), term(1)]) == make((0, 0))
    assert normalize([term(0, 0, 1), term(0)]) == make((0, 1))


def test_normalize_is_idempotent_and_order_free():
    rng = random.Random(7)
    for _ in range(200):
        ts = list(rand_indexset(rng).generators)
        rng.shuffle(ts)
        a = normalize(ts)
        assert normalize(a.generators) == a
        rng.shuffle(ts)
        assert normalize(ts) == a


def test_contains_examples():
    G = make((0, 2))
    assert contains(G, term(3, 0, 1))
    assert not contains(G, term(-1, 0, 0))
    assert not contains(EMPTY, term(0))


def test_contains_matches_window_oracle():
    rng = random.Random(11)
    for _ in range(200):
        G = rand_indexset(rng)
        w = closure_window(G, W_RE, W_P)
        for _ in range(10):
            re = Fraction(rng.randint(-6, 9), rng.choice([1, 2, 3]))
            im = Fraction(rng.choice([0, 1, -1]))
            p = rng.randint(0, W_P)
            assert contains(G, term(re, im, p)) == ((re, im, p) in w)


def test_inf_re_examples():
    assert inf_re(make((Fraction(1, 2), 0), (2, 3))) == Fraction(1, 2)
    assert inf_re(EMPTY) == INF
    assert inf_re(make((0, 0))) == 0


def test_add_examples():
    assert add(make((1, 0)), make((2, 1))) == make((3, 1))
    assert add(make((4, 2)), EMPTY) == EMPTY
    assert add(make((0, 0)), make((0, 0))) == make((0, 0))


def test_add_matches_oracle_and_laws():
    rng = random.Random(13)
    for _ in range(150):
        G, H = rand_indexset(rng), rand_indexset(rng)
        got = closure_window(add(G, H), W_RE, W_P)
        assert got == oracle_add(G, H, W_RE, W_P)
        assert add(G, H) == add(H, G)
        # unit for the smooth index set
        assert windowed_eq(add(G, SMOOTH), G, W_RE, W_P)
    for _ in range(100):
        G, H, K = (rand_indexset(rng) for _ in range(3))
        assert add(add(G, H), K) == add(G, add(H, K))


def test_inf_re_additive():
    rng = random.Random(17)
    for _ in range(200):
        G, H = rand_indexset(rng), rand_indexset(rng)
        if G.is_empty or H.is_empty:
            continue
        assert inf_re(add(G, H)) == inf_re(G) + inf_re(H)


def test_ext_union_examples():
    assert ext_union(make((0, 0)), make((0, 0))) == make((0, 1))
    G = make((2, 1), (Fraction(5, 2), 0))
    assert ext_union(G, EMPTY) == G
    assert ext_union(make((0, 0)), make((3, 0))) == make((0, 0), (3, 1))


def test_ext_union_matches_oracle_and_commutes():
    rng = random.Random(19)
    for _ in range(200):
        G, H = rand_indexset(rng), rand_indexset(rng)
        got = closure_window(ext_union(G, H), W_RE, W_P)
        assert got == oracle_ext_union(G, H, W_RE, W_P)
        assert ext_union(G, H) == ext_union(H, G)


def test_ext_union_associative_on_windows():
    # associativity is not assumed anywhere; it is established here
    # empirically on random triples (any failure blocks release)
    rng = random.Random(23)
    for _ in range(250):
        G, H, K = (rand_indexset(rng) for _ in range(3))
        left = ext_union(ext_union(G, H), K)
        right = ext_union(G, ext_union(H, K))
        assert windowed_eq(left, right, W_RE, W_P)


def test_shift_examples_and_composition():
    assert shift(make((0, 0)), 5) == make((5, 0))
    assert shift(EMPTY, Fraction(-7, 3)) == EMPTY
    assert shift(make((1, 2)), -1) == make((0, 2))
    rng = random.Random(29)
    for _ in range(100):
        G = rand_indexset(rng)
        w1 = Fraction(rng.randint(-6, 6), rng.choice([1, 2]))
        w2 = Fraction(rng.randint(-6, 6), rng.choice([1, 2]))
        assert shift(G, w1 + w2) == shift(shift(G, w1), w2)


def test_divide_examples():
    assert divide(make((3, 1)), 1) == make((3, 1))
    assert divide(make((1, 0)), 2) == make((Fraction(1, 2), 0), (1, 0))
    # oracle: divided closure equals pointwise division of the closure
    rng = random.Random(31)
    for _ in range(100):
        G = rand_indexset(rng)
        e = rng.choice([2, 3])
        got = closure_window(divide(G, e), Fraction(4), W_P)
        want = frozenset((r / e, i / e, p)
                         for (r, i, p) in closure_window(G, Fraction(4) * e, W_P))
        assert got == want


# --- pullback / pushforward ---------------------------------------------

def test_pullback_examples():
    f = StubMap(["G"], ["H1", "H2"], {("G", "H1"): 1, ("G", "H2"): 1})
    E = family(["H1", "H2"], H1=make((Fraction(1, 2), 0)), H2=make((2, 0)))
    got = pullback_family(f, E)
    assert got["G"] == make((Fraction(5, 2), 0))

    f0 = StubMap(["G"], ["H"], {})
    assert pullback_family(f0, family(["H"], H=make((1, 0))))["G"] == SMOOTH

    f1 = StubMap(["G"], ["H"], {("G", "H"): 1})
    assert pullback_family(f1, family(["H"]))["G"] == EMPTY


def test_pullback_exponent_multiplicity():
    f = StubMap(["G"], ["H"], {("G", "H"): 2})
    E = family(["H"], H=make((Fraction(3, 2), 1)))
    assert pullback_family(f, E)["G"] == make((3, 1))


def test_pushforward_examples():
    f = StubMap(["G"], ["H"], {("G", "H"): 1})
    E = family(["G"], G=make((Fraction(7, 3), 0)))
    got, bad = pushforward_family(f, E)
    assert got["H"] == make((Fraction(7, 3), 0)) and not bad

    f2 = StubMap(["G"], ["H"], {("G", "H"): 2})
    got, _ = pushforward_family(f2, family(["G"], G=make((1, 0))))
    assert got["H"] == make((Fraction(1, 2), 0), (1, 0))

    f3 = StubMap(["G1", "G2"], ["H"], {("G1", "H"): 1, ("G2", "H"): 1})
    E3 = family(["G1", "G2"], G1=make((0, 0)), G2=make((0, 0)))
    got, _ = pushforward_family(f3, E3)
    assert got["H"] == make((0, 1))


def test_pushforward_violations_reported_not_raised():
    f = StubMap(["G", "R"], ["H"], {("G", "H"): 1})
    E = family(["G", "R"], G=make((1, 0)), R=make((0, 0)))
    got, bad = pushforward_family(f, E)
    assert bad == ["R"]
    E2 = family(["G", "R"], G=make((1, 0)), R=make((Fraction(1, 3), 0)))
    _, bad2 = pushforward_family(f, E2)
    assert bad2 == []
    # empty sets integrate trivially
    _, bad3 = pushforward_family(f, family(["G", "R"], G=make((1, 0))))
    assert bad3 == []


def test_permutation_roundtrip_identity():
    faces = ("A", "B", "C")
    perm = {("A", "B"): 1, ("B", "C"): 1, ("C", "A"): 1}
    f = StubMap(faces, faces, perm)
    rng = random.Random(37)
    for _ in range(100):
        E = family(faces, A=rand_indexset(rng), B=rand_indexset(rng),
                   C=rand_indexset(rng))
        back, bad = pushforward_family(f, pullback_family(f, E))
        assert not bad or all(E[g].is_empty or inf_re(E[g]) > 0 for g in bad)
        assert back.windowed_eq(E, W_RE, W_P)


# --- serialization -------------------------------------------------------

def weights_from_json(data) -> ia.WeightVector:
    return ia.WeightVector({f: Fraction(v) for f, v in data.items()})


def test_serialization_roundtrip():
    rng = random.Random(41)
    for _ in range(50):
        G = rand_indexset(rng)
        assert ia.indexset_from_json(ia.indexset_to_json(G)) == G
    E = family(["rf", "lf"], rf=make((Fraction(1, 3), 2)), lf=EMPTY)
    assert ia.family_from_json(E.faces, ia.family_to_json(E)) == E
    w = ia.weights(rf=Fraction(-5), ff_z=Fraction(2, 3))
    assert weights_from_json(ia.weights_to_json(w)) == w


def test_family_requires_totality():
    with pytest.raises(ValueError):
        ia.IndexFamily(("a", "b"), {"a": EMPTY})


@pytest.mark.parametrize("p", [1.5, 2.0, True, False, "1", Fraction(1)])
def test_log_power_must_be_an_int(p):
    with pytest.raises(TypeError, match="log power must be an int"):
        term(0, 0, p)


def test_negative_log_power_is_a_value_error():
    with pytest.raises(ValueError, match="nonnegative"):
        term(0, 0, -1)
    assert term(0, 0, 3).p == 3

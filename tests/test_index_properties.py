"""Property tests: the coset-sweep index-set kernels against references.

``normalize`` is compared with the quadratic domination scan it
replaced, and ``ext_union_many``, the shifted sweep under it, ``add``,
``divide`` and ``pushforward_family`` with the closure windows of
``closure_window``, which expands generators by the defining rules
alone.  Exponents mix imaginary parts and denominators, so distinct
cosets share real parts mod 1 or imaginary parts.  ``IndexSet`` stores
a normal form, so raw term lists, dominated terms included, reach the
kernels as ``ia._cosets(ts)``, and their windows are unions of the
windows of single terms.  The readers of the stored form, ``inf_re``,
``contains`` and the integrability pre-check, are compared with the
generators and the windows.
"""

from fractions import Fraction
from functools import reduce

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhcalc import index_algebra as ia
from qhcalc import op_calculus as oc
from qhcalc.index_algebra import (EMPTY, INF, CxRat, IndexSet, IndexTerm,
                                  add, closure_window, contains, cx, divide,
                                  ext_union, ext_union_many, family, inf_re,
                                  normalize, pushforward_family, shift)
from test_index_algebra import StubMap, oracle_add, window_ext_union

W_RE, W_P = Fraction(3), 8

PROPS = settings(max_examples=50, deadline=None, derandomize=True,
                 database=None)

terms = st.builds(
    lambda n, d, im, p: IndexTerm(cx(Fraction(n, d), im), p),
    st.integers(-3, 3), st.sampled_from((1, 2, 3)),
    st.sampled_from((0, 0, 1, -1, Fraction(1, 2))), st.integers(0, 3))
# raw generator lists: closures are well defined without an antichain
raw_lists = st.lists(terms, max_size=4)
shifts = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3)))


# -- references --------------------------------------------------------------

def dominates(a, b):
    """b lies in the closure generated by a."""
    d = b.z.re - a.z.re
    return (a.z.im == b.z.im and b.p <= a.p and d >= 0
            and d.denominator == 1)


def quadratic_normalize(ts):
    ts = set(ts)
    return frozenset(t for t in ts
                     if not any(o != t and dominates(o, t) for o in ts))


def window(G, re_max=W_RE):
    return closure_window(G, re_max, W_P)


def raw_window(ts, re_max=W_RE):
    """Window of the closure of raw terms: the union of the windows of
    the single terms, so no kernel drops a dominated one first."""
    return frozenset().union(*(window(IndexSet([t]), re_max) for t in ts))


def window_fold(wins):
    """Extended union of windows, two at a time."""
    return reduce(lambda acc, w: window_ext_union(acc, w, W_P), wins,
                  frozenset())


def window_divide(ts, e):
    return frozenset((r / e, i / e, p)
                     for r, i, p in raw_window(ts, e * W_RE))


def shifted(ts, w):
    """The terms moved by the rational w, one by one."""
    return [IndexTerm(t.z + CxRat(w), t.p) for t in ts]


def swept(parts):
    """The kernel's extended union of raw term lists, each (ts, a, b)
    shifted by a - b."""
    return IndexSet._of(ia._sweep([(ia._cosets(ts), a, b)
                                   for ts, a, b in parts]))


# -- properties ----------------------------------------------------------------

@PROPS
@given(st.lists(terms, max_size=8))
@example([])
def test_normalize_matches_quadratic_scan(ts):
    got = normalize(ts)
    assert got.generators == quadratic_normalize(ts)
    assert window(got) == raw_window(ts)
    G = IndexSet(frozenset(ts))
    assert G == got and hash(G) == hash(got)


@PROPS
@given(st.lists(raw_lists, min_size=1, max_size=5))
def test_ext_union_many_matches_window_fold_and_pairwise_fold(tss):
    got = swept([(ts, 0, 0) for ts in tss])
    assert got.generators == quadratic_normalize(got.generators)
    assert window(got) == window_fold(raw_window(ts) for ts in tss)
    sets = [IndexSet(frozenset(ts)) for ts in tss]
    assert got == ext_union_many(sets) == reduce(ext_union, sets, EMPTY)


@PROPS
@given(st.lists(st.tuples(raw_lists, shifts, shifts), min_size=1, max_size=4))
def test_shifted_sweep_matches_window_fold_of_shifted_sets(parts):
    # each part (ts, a, b) is swept shifted by a - b
    got = swept(parts)
    assert got.generators == quadratic_normalize(got.generators)
    assert window(got) == window_fold(raw_window(shifted(ts, a - b))
                                      for ts, a, b in parts)


@PROPS
@given(raw_lists, shifts)
def test_shift_moves_the_closure_and_zero_keeps_the_set(ts, w):
    G = IndexSet(frozenset(ts))
    assert window(shift(G, w)) == raw_window(shifted(ts, w))
    for zero in (0, Fraction(0), "0"):
        assert shift(G, zero) is G


@PROPS
@given(raw_lists, raw_lists, st.integers(1, 3))
def test_add_and_divide_match_window_oracles(ts, us, e):
    G, H = IndexSet(frozenset(ts)), IndexSet(frozenset(us))
    got = add(G, H)
    assert got.generators == quadratic_normalize(got.generators)
    assert window(got) == oracle_add(G, H, W_RE, W_P)
    assert got == IndexSet._of(ia._sweep(
        [(ia._sum(ia._cosets(ts), ia._cosets(us)), 0, 0)]))
    assert window(divide(G, e)) == window_divide(ts, e)


@PROPS
@given(raw_lists, raw_lists, terms)
@example([], [], IndexTerm(cx(0), 0))
def test_stored_form_readers_match_generators_and_windows(ts, us, t):
    G, H = IndexSet(frozenset(ts)), IndexSet(frozenset(us))
    lo = min((g.z.re for g in G.generators), default=INF)
    assert inf_re(G) == lo == min((u.z.re for u in ts), default=INF)
    point = (t.z.re, t.z.im, t.p)
    assert contains(G, t) == (point in raw_window(ts, t.z.re))
    fails = bool(ts and us) and lo + min(u.z.re for u in us) <= 0
    try:
        oc._require_integrable(G, H, "rf")
    except oc.NonIntegrable:
        assert fails
    else:
        assert not fails


DOM, COD = ("a", "b", "c", "d"), ("x", "y")


@PROPS
@given(st.lists(st.integers(0, 2), min_size=8, max_size=8),
       st.lists(raw_lists, min_size=4, max_size=4))
def test_pushforward_matches_window_oracle(exps, tss):
    f = StubMap(DOM, COD, {(g, h): exps[2 * i + j]
                           for i, g in enumerate(DOM)
                           for j, h in enumerate(COD)})
    raw = dict(zip(DOM, tss))
    E = family(DOM, **{g: IndexSet(frozenset(ts)) for g, ts in raw.items()})
    K, violations = pushforward_family(f, E)
    for h in COD:
        want = window_fold(window_divide(raw[g], f.exponent(g, h))
                           for g in DOM if f.exponent(g, h))
        assert window(K[h]) == want, h
    assert violations == [
        g for g in DOM if not any(f.exponent(g, h) for h in COD)
        and inf_re(E[g]) <= 0]

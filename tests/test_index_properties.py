"""Property tests: the coset-sweep index-set kernels against references.

``normalize`` is compared with the quadratic domination scan it
replaced, and ``ext_union_many``, ``add``, ``divide`` and
``pushforward_family`` with the closure windows of ``closure_window``,
which expands generators by the defining rules alone.  Exponents mix
imaginary parts and denominators, so distinct cosets share real parts
mod 1 or imaginary parts, and input sets may hold dominated terms.
"""

from fractions import Fraction
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from qhcalc.index_algebra import (EMPTY, IndexSet, IndexTerm, add,
                                  closure_window, cx, divide, ext_union,
                                  ext_union_many, family, inf_re, normalize,
                                  pushforward_family)
from test_index_algebra import StubMap, oracle_add, window_ext_union

W_RE, W_P = Fraction(3), 8

PROPS = settings(max_examples=50, deadline=None, derandomize=True,
                 database=None)

terms = st.builds(
    lambda n, d, im, p: IndexTerm(cx(Fraction(n, d), im), p),
    st.integers(-3, 3), st.sampled_from((1, 2, 3)),
    st.sampled_from((0, 0, 1, -1, Fraction(1, 2))), st.integers(0, 3))
# raw generator sets: closures are well defined without an antichain
raw_sets = st.lists(terms, max_size=4).map(lambda ts: IndexSet(frozenset(ts)))


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


def window_fold(wins):
    """Extended union of windows, two at a time."""
    return reduce(lambda acc, w: window_ext_union(acc, w, W_P), wins,
                  frozenset())


def window_divide(G, e):
    return frozenset((r / e, i / e, p) for r, i, p in window(G, e * W_RE))


# -- properties ----------------------------------------------------------------

@PROPS
@given(st.lists(terms, max_size=8))
def test_normalize_matches_quadratic_scan(ts):
    got = normalize(ts)
    assert got.generators == quadratic_normalize(ts)
    assert window(got) == window(IndexSet(frozenset(ts)))


@PROPS
@given(st.lists(raw_sets, min_size=1, max_size=5))
def test_ext_union_many_matches_window_fold_and_pairwise_fold(sets):
    got = ext_union_many(sets)
    assert got.generators == quadratic_normalize(got.generators)
    assert window(got) == window_fold(window(G) for G in sets)
    assert got == reduce(ext_union, sets, EMPTY)


@PROPS
@given(raw_sets, raw_sets, st.integers(1, 3))
def test_add_and_divide_match_window_oracles(G, H, e):
    got = add(G, H)
    assert got.generators == quadratic_normalize(got.generators)
    assert window(got) == oracle_add(G, H, W_RE, W_P)
    assert window(divide(G, e)) == window_divide(G, e)


DOM, COD = ("a", "b", "c", "d"), ("x", "y")


@PROPS
@given(st.lists(st.integers(0, 2), min_size=8, max_size=8),
       st.lists(raw_sets, min_size=4, max_size=4))
def test_pushforward_matches_window_oracle(exps, sets):
    f = StubMap(DOM, COD, {(g, h): exps[2 * i + j]
                           for i, g in enumerate(DOM)
                           for j, h in enumerate(COD)})
    E = family(DOM, **dict(zip(DOM, sets)))
    K, violations = pushforward_family(f, E)
    for h in COD:
        want = window_fold(window_divide(E[g], f.exponent(g, h))
                           for g in DOM if f.exponent(g, h))
        assert window(K[h]) == want, h
    assert violations == [
        g for g in DOM if not any(f.exponent(g, h) for h in COD)
        and inf_re(E[g]) <= 0]

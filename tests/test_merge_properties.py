"""Property tests: indexed `Merge` against a plain partition reference.

The reference keeps a merge as bare per-level block sets and joins
partitions by repeated set merging, the way the engine did before
merges were indexed.  Random merges span 3-4 factors and levels -1..2.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from qhcalc.corner_spaces import Merge

LEVELS = (-1, 0, 1, 2)


# -- reference ---------------------------------------------------------------

def ref_partition(groups_a, groups_b=()):
    groups = [set(b) for b in groups_a] + [set(b) for b in groups_b]
    merged = []
    for g in groups:
        hit = [m for m in merged if m & g]
        for m in hit:
            merged.remove(m)
            g |= m
        merged.append(g)
    return frozenset(frozenset(g) for g in merged if len(g) >= 2)


def ref_at(blocks, level):
    return dict(blocks).get(level, frozenset())


def ref_join(a, b):
    levels = sorted({l for l, _ in a} | {l for l, _ in b})
    out = ((l, ref_partition(ref_at(a, l), ref_at(b, l))) for l in levels)
    return tuple((l, blks) for l, blks in out if blks)


def ref_leq(a, b):
    return all(any(blk <= o for o in ref_at(b, l))
               for l, blks in a for blk in blks)


def ref_maxlevel(blocks, pair):
    return max((l for l, blks in blocks if any(pair <= b for b in blks)),
               default=-2)


def ref_from_pairs(level_pairs):
    by_level = {}
    for l, p in level_pairs:
        by_level.setdefault(l, []).append(frozenset(p))
    out = ((l, ref_partition(by_level[l])) for l in sorted(by_level))
    return tuple((l, blks) for l, blks in out if blks)


def ref_reduce_by(blocks, absorbed):
    kept = []
    for l, blks in blocks:
        for b in blks:
            for p in itertools.combinations(sorted(b), 2):
                pr = frozenset(p)
                if ref_maxlevel(absorbed, pr) < ref_maxlevel(blocks, pr):
                    kept.append((l, pr))
    return ref_from_pairs(kept)


def ref_canonical_key(blocks):
    return tuple((l, tuple(sorted(tuple(sorted(b)) for b in blks)))
                 for l, blks in blocks)


# -- random merges -----------------------------------------------------------

@st.composite
def merges(draw, n):
    """Per-level partitions: each factor draws a block label per level."""
    out = []
    for l in LEVELS:
        labels = draw(st.lists(st.integers(0, n - 1), min_size=n,
                               max_size=n))
        groups = {}
        for factor, lab in enumerate(labels, start=1):
            groups.setdefault(lab, set()).add(factor)
        blks = frozenset(frozenset(g) for g in groups.values() if len(g) >= 2)
        if blks:
            out.append((l, blks))
    return tuple(out)


@st.composite
def merge_pairs(draw):
    n = draw(st.sampled_from((3, 4)))
    return n, draw(merges(n)), draw(merges(n))


def _pairs(n):
    return [frozenset(p) for p in itertools.combinations(range(1, n + 1), 2)]


PROPS = settings(max_examples=200, deadline=None, derandomize=True,
                 database=None)


@PROPS
@given(merge_pairs())
def test_join_leq_eq_match_reference(args):
    n, a, b = args
    A, B = Merge(a), Merge(b)
    assert A.blocks == a and B.blocks == b
    assert A.join(B).blocks == ref_join(a, b)
    assert B.join(A).blocks == ref_join(a, b)
    assert A.leq(B) == ref_leq(a, b)
    assert B.leq(A) == ref_leq(b, a)
    assert A.eq(B) == (ref_leq(a, b) and ref_leq(b, a))
    assert A.levels() == [l for l, _ in a]
    for level in LEVELS:
        assert A.at(level) == ref_at(a, level)


@PROPS
@given(merge_pairs())
def test_maxlevel_reduce_by_canonical_key_match_reference(args):
    n, a, b = args
    A, B = Merge(a), Merge(b)
    for pair in _pairs(n):
        assert A.maxlevel(pair) == ref_maxlevel(a, pair)
    assert A.all_pairs() == {p for p in _pairs(n)
                             if ref_maxlevel(a, p) > -2}
    assert A.reduce_by(B).blocks == ref_reduce_by(a, b)
    assert A.canonical_key() == ref_canonical_key(a)


@PROPS
@given(st.sampled_from((3, 4)).flatmap(
    lambda n: st.lists(st.tuples(st.sampled_from(LEVELS),
                                 st.sampled_from(_pairs(n))), max_size=8)))
def test_from_pairs_matches_reference(level_pairs):
    assert Merge.from_pairs(level_pairs).blocks == ref_from_pairs(level_pairs)


def test_deepest_level_alone_does_not_determine_a_merge():
    # merged at level 1 but not at the shallower levels -1 and 0
    gap = Merge.from_pairs([(1, {1, 2})])
    full = Merge.diag({1, 2}, 1)
    assert gap.maxlevel({1, 2}) == full.maxlevel({1, 2}) == 1
    assert gap.leq(full) and not full.leq(gap) and not gap.eq(full)

"""Multi-fibred boundary configurations and their double and triple spaces.

Towers and their face names live in ``tower`` and are re-exported here,
with the coordinate-change rules of a tower.  The double space resolves
the chain of partial diagonals of a two-factor product; the triple space
resolves the full diagram of partial diagonals of a three-factor product,
level by level (twenty-one steps at depth 2, where the commands stop).
Projections to the double space are obtained by commuting the symmetric
blowup sequence, through certified rewrite steps and by a loop over
levels, into one that starts with a single-factor times double-space
prefix; their face tables are checked against a closed rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import corner_spaces as cs
from .corner_spaces import (BlowupSeq, BMap, CenterExpr, Merge, PSub, Space,
                            bmap_from_entries, bubble_to, compose, replay,
                            rewrite_step)
from .tower import (FAMILIES, TRIPLE_STAGES, Tower,  # noqa: F401
                    double_face_names, family_name, normal_bundle_rank,
                    parse_family_name, reduce, require_depth_2)


# ---------------------------------------------------------------------------
# coordinate-change admissibility and the function algebra

@dataclass(frozen=True)
class CoordChangeSpec:
    """Cross-term powers of a candidate change of adapted coordinates.

    rows maps each target level j in {-1, 0, .., k} to a list of
    (source level i > j, power of the boundary coordinate) plus the
    power of the remainder term.
    """

    rows: tuple  # ((j, ((i, p), ...), remainder_power), ...)


def check_coord_change(t: Tower, spec: CoordChangeSpec) -> bool:
    """Admissibility: a cross-term feeding level j from level i needs
    boundary-coordinate power at least a_{j+1} + .. + a_i, and the
    remainder at least a_{j+1} + .. + a_k."""
    a = t.orders
    for j, terms, rem in spec.rows:
        if not -1 <= j <= t.k:
            raise ValueError(f"target level {j} out of range")
        for i, p in terms:
            if not j < i <= t.k:
                raise ValueError(f"source level {i} invalid for target {j}")
            if p < sum(a[j + 1:i + 1]):
                return False
        if rem < sum(a[j + 1:]):
            return False
    return True


@dataclass(frozen=True)
class FormalASeries:
    """Finite list of (boundary power d, deepest level the term sees)."""

    terms: tuple  # ((d, level), ...) with level in {-1, 0, .., k}


def a_function_member(t: Tower, s: FormalASeries) -> bool:
    """Membership in the adapted function algebra: a term whose
    coefficient depends on levels down to l needs power a_0 + .. + a_l;
    terms depending only on the boundary coordinate are unrestricted."""
    a = t.orders
    for d, level in s.terms:
        if not -1 <= level <= t.k:
            raise ValueError(f"level {level} out of range")
        if level >= 0 and d < sum(a[:level + 1]):
            return False
    return True


# ---------------------------------------------------------------------------
# double space


@dataclass(frozen=True)
class ASpaceDouble:
    space: Space
    faces: tuple          # report order: (rf, lf, front faces ...)
    proj_l: BMap
    proj_r: BMap


def single_factor_space(t: Tower) -> Space:
    return cs.product_space(1, t.level_dims(), name="factor",
                            face_names=("bf",))


def _double_seq(t: Tower) -> BlowupSeq:
    if t.a0 != 1:
        raise ValueError("space constructions need a_0 = 1")
    base = cs.product_space(2, t.level_dims(), name="double",
                            face_names=("lf", "rf"))
    base = cs.register(base, "diag",
                       PSub(cs.diag_locus({1, 2}, t.k)))
    names = double_face_names(t.k)[2:]
    entries = [CenterExpr(names[0], ("lf", "rf"), Merge.trivial(), 1)]
    for j in range(1, t.k + 1):
        entries.append(CenterExpr(names[j], (names[j - 1],),
                                  Merge.diag({1, 2}, j - 1), t.orders[j]))
    return BlowupSeq(base, tuple(entries))


@lru_cache(maxsize=64)
def double_space(t: Tower) -> ASpaceDouble:
    """Resolve the diagonal chain of the two-factor product.

    Blow up the corner, then the boundary of each partial diagonal in
    increasing depth, each to its tangency order.  The registered full
    diagonal ends up meeting only the deepest front face.
    """
    seq = _double_seq(t)
    space, maps = replay(seq)
    factor = single_factor_space(t)
    entries_l = [(g, "bf", space.val(g, ("x", 1))) for g in space.face_names]
    entries_r = [(g, "bf", space.val(g, ("x", 2))) for g in space.face_names]
    proj_l = bmap_from_entries(space, factor, entries_l)
    proj_r = bmap_from_entries(space, factor, entries_r)
    return ASpaceDouble(space, double_face_names(t.k), proj_l, proj_r)


def double_projections(t: Tower):
    d = double_space(t)
    return d.proj_l, d.proj_r


def exponent_vector(proj: BMap, faces: Sequence[str]) -> tuple:
    """Exponents of the single boundary face, in the given face order."""
    return tuple(proj.exponent(g, "bf") for g in faces)


# ---------------------------------------------------------------------------
# triple space: symmetric and commuted constructions

PAIR_OF = {1: frozenset({2, 3}), 2: frozenset({1, 3}), 3: frozenset({1, 2})}


def _sym_entries(t: Tower, stage: str):
    """Symmetric blowup sequence up to the requested stage.

    Level l blows up, each to order a_l: the triple diagonal V_l, the
    pair-diagonal family new at l (inside V_{l-1}, or in the corners of
    pairs of boundary hypersurfaces at l = 0), and the lift of every
    earlier family, newest first.
    """
    entries = []
    for l in range(TRIPLE_STAGES.index(stage) + 1):
        prev = (f"V_{TRIPLE_STAGES[l - 1]}",) if l else ()
        level = [(f"V_{TRIPLE_STAGES[l]}", prev or ("H_1", "H_2", "H_3"),
                  {1, 2, 3})]
        for i in (1, 2, 3):
            inside = prev or tuple(f"H_{j}" for j in sorted(PAIR_OF[i]))
            level.append((family_name(l, i, l), inside, PAIR_OF[i]))
        level += [(family_name(c, i, l), (family_name(c, i, l - 1),),
                   PAIR_OF[i])
                  for c in range(l - 1, -1, -1) for i in (1, 2, 3)]
        entries += [CenterExpr(name, faces, Merge.diag(fs, l - 1) if l
                               else Merge.trivial(), t.orders[l])
                    for name, faces, fs in level]
    return entries


def symmetric_triple_seq(t: Tower, stage: str = "z") -> BlowupSeq:
    """Every triple-space view starts here, so the depth is checked here."""
    if stage == "z":
        require_depth_2(t, "triple")
    if t.k < TRIPLE_STAGES.index(stage):
        raise ValueError(f"triple space stage {stage} needs tower depth "
                         f"{TRIPLE_STAGES.index(stage)}")
    if t.a0 != 1:
        raise ValueError("space constructions need a_0 = 1")
    dims = t.level_dims()
    base = cs.product_space(3, dims, name="triple")
    return BlowupSeq(base, tuple(_sym_entries(t, stage)))


def commuted_triple_seq(t: Tower, stage: str = "z") -> BlowupSeq:
    """Rewrite the symmetric sequence, by certified commutation steps, so
    it starts with the index-1 single-factor-times-double-space chain.

    Level l's index-1 block is V_l and the index-1 face of each family at
    level l, newest first.  Disjoint swaps gather each block behind its
    V_l and pull the blocks forward, deepest first.  Then each level
    makes a nested swap at V_l, moves V_l to the end of its block and
    exchanges one triple per family, newest first.
    """
    s = symmetric_triple_seq(t, stage)
    blocks = [[f"V_{TRIPLE_STAGES[l]}"]
              + [family_name(c, 1, l) for c in range(l, -1, -1)]
              for l in range(TRIPLE_STAGES.index(stage) + 1)]
    for block in blocks:
        for j, name in enumerate(block[1:], 1):
            s = bubble_to(s, name, s.index_of(block[0]) + j)
    for l in range(len(blocks) - 1, 0, -1):
        at = s.index_of(blocks[l - 1][0]) + len(blocks[l - 1])
        for j, name in enumerate(sum(blocks[l:], [])):
            s = bubble_to(s, name, at + j)
    s = rewrite_step(s, 2, 0)
    for l in range(1, len(blocks)):
        v = blocks[l][0]
        s = rewrite_step(s, 2, s.index_of(v))
        s = bubble_to(s, v, s.index_of(blocks[l][-1]))
        for c in range(l, 0, -1):
            y = blocks[l - 1][0] if c == l else family_name(c, 1, l - 1)
            a, w = family_name(c, 1, l), family_name(c - 1, 1, l)
            s = bubble_to(s, w, s.index_of(a) + 1)
            p = s.index_of(y)
            s = bubble_to(bubble_to(s, a, p + 1), w, p + 2)
            s = rewrite_step(s, 3, p)
    return s


_SIGMA = {1: {1: 1, 2: 2, 3: 3},
          2: {1: 2, 2: 1, 3: 3},
          3: {1: 3, 2: 2, 3: 1}}


def _relabel_name(name: str, sigma: dict) -> str:
    if name.startswith("H_"):
        return f"H_{sigma[int(name[2:])]}"
    parsed = parse_family_name(name)
    if parsed is None:
        return name
    c, i, l = parsed
    return family_name(c, sigma[i], l)


def relabel_seq(seq: BlowupSeq, i: int) -> BlowupSeq:
    """Apply the factor transposition that turns projection 1 into i."""
    sigma = _SIGMA[i]
    out = []
    for e in seq.entries:
        merge = Merge(tuple(
            (l, frozenset(frozenset(sigma[x] for x in b) for b in blks))
            for l, blks in e.merge.blocks))
        out.append(CenterExpr(_relabel_name(e.label, sigma),
                              tuple(sorted(_relabel_name(f, sigma)
                                           for f in e.faces)),
                              merge, e.order, e.pure))
    return BlowupSeq(seq.base, tuple(out))


@dataclass(frozen=True)
class ASpaceTriple:
    space: Space                    # symmetric construction
    projections: tuple              # (BMap, BMap, BMap) onto the double space


@lru_cache(maxsize=32)
def triple_space(t: Tower, stage: str = "z") -> ASpaceTriple:
    """Build the stage triple space and its three projections.

    The space itself is the symmetric construction.  Each projection is
    derived from the commuted sequence for that index: composition of
    the blowdown maps onto its index-1 prefix (the single factor times
    the double space) with the product projection, re-based onto
    the symmetric space through the canonical face naming.
    """
    space, _ = replay(symmetric_triple_seq(t, stage))
    dt = reduce(t, TRIPLE_STAGES.index(stage))
    dbl = double_space(dt)
    projections = tuple(_triple_projection(t, stage, i, space, dbl)
                        for i in (1, 2, 3))
    return ASpaceTriple(space, projections)


def _triple_projection(t: Tower, stage: str, i: int, sym_space: Space,
                       dbl: ASpaceDouble) -> BMap:
    com = relabel_seq(commuted_triple_seq(t, stage), i)
    level = TRIPLE_STAGES.index(stage)
    _, maps = replay(com)
    chain = maps[-1]
    for beta in reversed(maps[level + 1:-1]):
        chain = compose(chain, beta)
    prefix, _ = replay(com, level + 1)
    left, right = sorted({1, 2, 3} - {i})
    entries = [(f"H_{left}", "lf", 1), (f"H_{right}", "rf", 1)]
    for l, ff in enumerate(double_face_names(level)[2:]):
        entries.append((family_name(0, i, l), ff, 1))
    proj = bmap_from_entries(prefix, dbl.space, entries)
    full = compose(chain, proj)
    # the commuted replay names faces canonically, so the exponent data
    # transfers to the symmetric space verbatim
    if set(full.domain.face_names) != set(sym_space.face_names):
        raise cs.EngineUnsupported("commuted replay face names diverged")
    return bmap_from_entries(sym_space, dbl.space, full.exponents)


def face_table(proj: BMap) -> dict:
    """Preimage classes of the double space faces, plus the interior; a
    face mapped into several faces (no b-fibration) is listed under each."""
    out = {h: [] for h in proj.codomain_faces}
    out["interior"] = []
    for g in proj.domain_faces:
        for h in proj.face_map(g) or ("interior",):
            out[h].append(g)
    return {k: tuple(sorted(v)) for k, v in out.items()}


def facemap_rule(stage: str, i: int) -> dict:
    """Face table of projection i at a stage, by the closed rule.

    H_i maps into the interior and the other two H faces onto lf and rf
    in factor order.  V_l and the index-i face of every family at level
    l go to ff_l.  The other faces of the family new at level 0 go to lf
    or rf by their retained factor; those of a family new at level
    c >= 1 go to ff_{c-1}.
    """
    level = TRIPLE_STAGES.index(stage)
    faces = double_face_names(level)
    ff = faces[2:]
    side = dict(zip(sorted({1, 2, 3} - {i}), ("lf", "rf")))
    out = {h: [] for h in faces + ("interior",)}
    for j in (1, 2, 3):
        out[side.get(j, "interior")].append(f"H_{j}")
    for l in range(level + 1):
        out[ff[l]].append(f"V_{TRIPLE_STAGES[l]}")
        for c in range(l + 1):
            for j in (1, 2, 3):
                h = ff[l] if j == i else ff[c - 1] if c else side[6 - i - j]
                out[h].append(family_name(c, j, l))
    return {h: tuple(sorted(v)) for h, v in out.items()}


def verify_facemaps(t: Tower) -> dict:
    """Compare the replayed face table of every stage and index with
    ``facemap_rule``.  Returns a report with any mismatches."""
    report = {"tables": 0, "mismatches": []}
    # the full triple space (stage z) exists at depth 2 only
    deepest = 2 if t.k == 2 else min(t.k, 1)
    for stage in TRIPLE_STAGES[:deepest + 1]:
        trip = triple_space(t, stage)
        for i in (1, 2, 3):
            got = face_table(trip.projections[i - 1])
            want = facemap_rule(stage, i)
            report["tables"] += 1
            for h in sorted(set(got) | set(want)):
                if tuple(got.get(h, ())) != tuple(want.get(h, ())):
                    report["mismatches"].append(
                        {"stage": stage, "projection": i, "face": h,
                         "got": got.get(h, ()), "want": want.get(h, ())})
    return report


CANONICAL_TOWER = Tower(2, (1, 1, 1), 1, (1, 1))


def relabel_projection(p1: BMap, i: int) -> BMap:
    """Index-i projection from the index-1 one by the factor
    transposition of ``relabel_seq``.  The retained factors keep their
    order except under the transposition with 3, which swaps lf and rf;
    the symmetric space is its own relabelling."""
    swap = {"lf": "rf", "rf": "lf"} if i == 3 else {}
    return BMap(p1.domain, p1.codomain, {
        _relabel_name(g, _SIGMA[i]): tuple(sorted((swap.get(h, h), e)
                                                  for h, e in row))
        for g, row in p1.rows.items()})


@lru_cache(maxsize=None)
def canonical_triple() -> ASpaceTriple:
    """The depth-2 triple space whose combinatorics every tower shares.
    Projections 2 and 3 are relabellings of the replayed projection 1;
    ``triple_space`` replays all three, which checks that symmetry."""
    t, dbl = CANONICAL_TOWER, double_space(CANONICAL_TOWER)
    space, _ = replay(symmetric_triple_seq(t))
    p1 = _triple_projection(t, "z", 1, space, dbl)
    return ASpaceTriple(space, (p1,) + tuple(
        relabel_projection(p1, i) for i in (2, 3)))


def triple_projection_tables() -> tuple:
    """The three projection b-maps of the canonical triple space.

    The face combinatorics of the triple space does not depend on the
    tower's orders or dimensions (only weights do), so the canonical
    construction serves every tower.
    """
    return canonical_triple().projections


def triple_constructions_isomorphic(t: Tower, stage: str = "z"):
    """Acceptance check: the symmetric space and the commuted replay are
    isomorphic (incidence of the replay is certified-conservative)."""
    sym, _ = replay(symmetric_triple_seq(t, stage))
    com, _ = replay(commuted_triple_seq(t, stage))
    return cs.isomorphic(sym, com, incidence="within")

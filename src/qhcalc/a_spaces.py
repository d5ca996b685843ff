"""Multi-fibred boundary configurations and their double and triple spaces.

Towers, their level and face names and their depth errors live in
``tower`` and are re-exported here, with the coordinate-change rules of a
tower.  The double space resolves the chain of partial diagonals of a
two-factor product; the triple space resolves the full diagram of partial
diagonals of a three-factor product level by level, at any stage up to
the tower depth, the engine's only depth rule.  Projections to the double
space commute the symmetric blowup sequence, by certified rewrite steps,
into one that starts with a single-factor times double-space prefix.
``verify_facemaps`` checks the closed rules the commands read against it.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import corner_spaces as cs
from .corner_spaces import (BlowupSeq, BMap, CenterExpr, Merge, PSub, Space,
                            bmap_from_entries, bubble_to, replay,
                            rewrite_step)
from .tower import (Tower, double_face_names, facemap_rule,  # noqa: F401
                    family_name, normal_bundle_rank, parse_name, reduce,
                    require_depth_2, require_unit_a0, stage_level,
                    stage_name, triple_face_names)


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
    require_unit_a0(t)
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


def double_space(t: Tower) -> ASpaceDouble:
    """Resolve the diagonal chain of the two-factor product.

    Blow up the corner, then the boundary of each partial diagonal in
    increasing depth, each to its tangency order.  The registered full
    diagonal ends up meeting only the deepest front face.
    """
    seq = _double_seq(t)
    space = replay(seq)
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

def _sym_entries(t: Tower, stage: str):
    """Symmetric blowup sequence up to the requested stage, one center
    per face of ``triple_face_names`` after H_1..H_3.

    Level l blows up, each to order a_l: the triple diagonal V_l, the
    pair-diagonal family new at l (inside V_{l-1}, or in the corners of
    pairs of boundary hypersurfaces at l = 0), and the lift of every
    earlier family, newest first.
    """
    entries = []
    for name in triple_face_names(stage_level(stage))[3:]:
        c, i, l = parse_name(name)
        fs = {1, 2, 3} - {i}        # the factors the center merges
        if i and c < l:
            inside = (family_name(c, i, l - 1),)
        elif l:
            inside = (f"V_{stage_name(l - 1)}",)
        else:
            inside = tuple(f"H_{j}" for j in sorted(fs))
        entries.append(CenterExpr(name, inside, Merge.diag(fs, l - 1) if l
                                  else Merge.trivial(), t.orders[l]))
    return entries


def symmetric_triple_seq(t: Tower, stage: str = "z") -> BlowupSeq:
    """Every triple-space view starts here, so its stage is checked here."""
    if t.k < stage_level(stage):
        raise ValueError(f"triple space stage {stage} needs tower depth "
                         f"{stage_level(stage)}")
    require_unit_a0(t)
    base = cs.product_space(3, t.level_dims(), name="triple")
    return BlowupSeq(base, tuple(_sym_entries(t, stage)))


@cs.replay_scope()
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
    blocks = [[f"V_{stage_name(l)}"]
              + [family_name(c, 1, l) for c in range(l, -1, -1)]
              for l in range(stage_level(stage) + 1)]
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
    c, i, l = parse_name(name) or (None, None, None)
    return family_name(c, sigma[i], l) if i else name


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
    commuted: Space                 # replay of the index-1 commuted sequence


@cs.replay_scope()
def triple_space(t: Tower, stage: str = "z") -> ASpaceTriple:
    """Build the stage triple space and its three projections.

    The space itself is the symmetric construction.  The commuted
    sequence is derived once and relabelled for each index; projection
    i is read off its own replay and re-based onto the symmetric space
    through the canonical face naming.  The build keeps the index-1
    commuted replay.
    """
    space = replay(symmetric_triple_seq(t, stage))
    dbl = double_space(reduce(t, stage_level(stage)))
    com = commuted_triple_seq(t, stage)
    (p1, commuted), (p2, _), (p3, _) = (
        _triple_projection(com, stage, i, space, dbl) for i in (1, 2, 3))
    return ASpaceTriple(space, (p1, p2, p3), commuted)


def _triple_projection(com: BlowupSeq, stage: str, i: int, sym_space: Space,
                       dbl: ASpaceDouble):
    """Projection i, and the commuted replay it is read from.  Past the
    index-i prefix (the single factor times the double space) a blowdown
    maps a front face onto its center's faces with exponent 1."""
    level = stage_level(stage)
    space = replay(relabel_seq(com, i))
    left, right = sorted({1, 2, 3} - {i})
    rows = defaultdict(Counter)     # unseeded faces map to the interior
    rows[f"H_{left}"]["lf"] = rows[f"H_{right}"]["rf"] = 1
    for l, ff in enumerate(double_face_names(level)[2:]):
        rows[family_name(0, i, l)][ff] = 1
    for f in space.faces[level + 4:]:
        rows[f.name] = sum((rows[h] for h in f.center.faces), Counter())
    if set(space.face_names) != set(sym_space.face_names):
        raise cs.EngineUnsupported("commuted replay face names diverged")
    return bmap_from_entries(sym_space, dbl.space, [
        (g, h, e) for g in space.face_names
        for h, e in sorted(rows[g].items())]), space


def face_table(proj: BMap) -> dict:
    """Preimage classes of the double space faces, plus the interior; a
    face mapped into several faces (no b-fibration) is listed under each."""
    out = {h: [] for h in proj.codomain_faces}
    out["interior"] = []
    for g in proj.domain_faces:
        for h in proj.face_map(g) or ("interior",):
            out[h].append(g)
    return {k: tuple(sorted(v)) for k, v in out.items()}


@cs.replay_scope()
def verify_facemaps(t: Tower) -> dict:
    """Compare the 3(k + 1) replayed face tables, one per stage and index,
    with ``facemap_rule``.  At every depth, compare the blowup weights of
    the top-stage double and triple spaces, and the triple ones plus the
    pullbacks of w0 along the three projections, with the one weight rule
    of ``densities``."""
    report = {"tables": 0, "mismatches": []}
    for stage in map(stage_name, range(t.k + 1)):
        trip = triple_space(t, stage)
        for i in (1, 2, 3):
            report["tables"] += 1
            report["mismatches"] += _mismatches(
                {"stage": stage, "projection": i},
                face_table(trip.projections[i - 1]), facemap_rule(stage, i),
                ())
    from . import densities as dn
    from . import index_algebra as ia
    tw = dn.triple_weights(t)       # trip is the top-stage space
    W_a0 = ia.WeightVector(cs.blowup_weights(trip.space))
    W_a = sum((ia.pullback_weights(p, tw.w0) for p in trip.projections), W_a0)
    w_a0 = ia.WeightVector(cs.blowup_weights(double_space(t).space))
    for vector, got, want in (("w_a0", w_a0, dn.double_weights(t).w_a0),
                              ("W_a0", W_a0, tw.W_a0), ("W_a", W_a, tw.W_a)):
        report["mismatches"] += _mismatches(
            {"vector": vector}, ia.weights_to_json(got),
            ia.weights_to_json(want), "0/1")
    return report


def _mismatches(where: dict, got: dict, want: dict, missing) -> list:
    """One record per face where two tables differ."""
    return [{**where, "face": h, "got": got.get(h, missing),
             "want": want.get(h, missing)}
            for h in sorted(set(got) | set(want))
            if got.get(h, missing) != want.get(h, missing)]


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
@cs.replay_scope()
def triple_projection_tables() -> tuple:
    """The three projection b-maps of the canonical triple space.

    The face combinatorics of the triple space does not depend on the
    tower's orders or dimensions (only weights do), so the canonical
    construction stands for every depth-2 tower as the engine's
    reference.  Projections 2 and 3 are relabellings of the replayed
    projection 1; ``triple_space`` replays all three, which checks that
    symmetry.
    """
    t, dbl = CANONICAL_TOWER, double_space(CANONICAL_TOWER)
    space = replay(symmetric_triple_seq(t))
    p1, _ = _triple_projection(commuted_triple_seq(t), "z", 1, space, dbl)
    return (p1,) + tuple(relabel_projection(p1, i) for i in (2, 3))

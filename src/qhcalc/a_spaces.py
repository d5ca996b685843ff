"""Multi-fibred boundary configurations and their double and triple spaces.

A tower records the depth, the tangency orders and the fibre dimensions
of a nested family of boundary fibrations.  The double space resolves
the chain of partial diagonals of a two-factor product; the triple space
(depth 2 only) resolves the full diagram of partial diagonals of a
three-factor product in twenty-one steps.  Projections to the double
space are obtained by commuting the symmetric blowup sequence, through
certified rewrite steps, into one that starts with a single-factor
times double-space prefix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import corner_spaces as cs
from .corner_spaces import (BlowupSeq, BMap, CenterExpr, Merge, PSub, Space,
                            bmap_from_entries, bubble_to, compose, replay,
                            rewrite_step)


@dataclass(frozen=True)
class Tower:
    """Depth, tangency orders (a_0..a_k) and dimensions (b; f_1..f_k)."""

    k: int
    orders: tuple
    b: int
    f: tuple

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(int(a) for a in self.orders))
        object.__setattr__(self, "f", tuple(int(x) for x in self.f))
        if self.k < 0 or len(self.orders) != self.k + 1:
            raise ValueError("need orders (a_0, ..., a_k)")
        if len(self.f) != self.k:
            raise ValueError("need fibre dimensions (f_1, ..., f_k)")
        if any(a < 1 for a in self.orders):
            raise ValueError("orders must be positive integers")
        if self.b < 0 or any(x < 0 for x in self.f):
            raise ValueError("dimensions must be nonnegative")

    @property
    def a0(self) -> int:
        return self.orders[0]

    @property
    def dim(self) -> int:
        return 1 + self.b + sum(self.f)

    def level_dims(self) -> dict:
        """Fibre level -> dimension (level 0 is the base of the tower)."""
        return dict(enumerate((self.b,) + self.f))

    def to_json(self) -> dict:
        return {"k": self.k, "a": list(self.orders), "b": self.b,
                "f": list(self.f)}

    @staticmethod
    def from_json(data) -> "Tower":
        k, a, b, f = data["k"], data["a"], data["b"], data.get("f", [])
        if not all(isinstance(v, list) and all(type(x) is int for x in v)
                   for v in ([k, b], a, f)):
            raise TypeError("k and b must be integers, a and f lists of "
                            "integers")
        return Tower(k, tuple(a), b, tuple(f))


def reduce(t: Tower, l: int) -> Tower:
    """Forget the fibrations below level l.

    The tangency orders truncate to (a_0..a_l) and the fibres below the
    cut are absorbed into the new deepest fibre.
    """
    if not 0 <= l <= t.k:
        raise ValueError("reduction level out of range")
    if l == t.k:
        return t
    if l == 0:
        return Tower(0, t.orders[:1], t.b + sum(t.f), ())
    absorbed = sum(t.f[l - 1:])
    return Tower(l, t.orders[:l + 1], t.b, t.f[:l - 1] + (absorbed,))


def normal_bundle_rank(t: Tower, l: int) -> int:
    """Rank of the level-l rescaled normal bundle.

    The basis is the scaled boundary derivative alone at level 0, and
    grows by the base and fibre directions above the cut: 1 + b + f_1 +
    ... + f_{l-1} for l >= 1.
    """
    if not 0 <= l <= t.k:
        raise ValueError("level out of range")
    return 1 if l == 0 else 1 + t.b + sum(t.f[:l - 1])


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
# level letters and face names

TRIPLE_STAGES = ("x", "y", "z")     # letters of levels 0, 1, 2
FAMILIES = ("E", "G", "F")          # triple-space family created at level c
_FAMILY_NAME = re.compile(r"([EGF])_\{([123]),([xyz])\}$")


def family_name(c: int, i: int, l: int) -> str:
    """Face of the family created at level c, factor index i, lifted to
    level l: family_name(0, 1, 2) is E_{1,z}."""
    return f"{FAMILIES[c]}_{{{i},{TRIPLE_STAGES[l]}}}"


def parse_family_name(name: str):
    """(c, i, l) of a family face name, or None for any other name."""
    m = _FAMILY_NAME.match(name)
    if m is None:
        return None
    return FAMILIES.index(m[1]), int(m[2]), TRIPLE_STAGES.index(m[3])


def double_face_names(k: int) -> tuple:
    """rf, lf and the front faces ff_0..ff_k; up to depth 2 these carry
    level letters, deepest level first (ff_zx, ff_zy, ff_z)."""
    if k >= len(TRIPLE_STAGES):
        return ("rf", "lf") + tuple(f"ff_{j}" for j in range(k + 1))
    top = TRIPLE_STAGES[k]
    return (("rf", "lf") + tuple(f"ff_{top}{s}" for s in TRIPLE_STAGES[:k])
            + (f"ff_{top}",))


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
    if stage == "z" and t.k != 2:
        raise ValueError("triple space needs tower depth 2")
    if stage == "y" and t.k < 1:
        raise ValueError("triple space stage y needs tower depth 1")
    if t.a0 != 1:
        raise ValueError("space constructions need a_0 = 1")
    dims = t.level_dims()
    base = cs.product_space(3, dims, name="triple")
    return BlowupSeq(base, tuple(_sym_entries(t, stage)))


def commuted_triple_seq(t: Tower, stage: str = "z") -> BlowupSeq:
    """Rewrite the symmetric sequence so it starts with the index-1
    single-factor-times-double-space chain.

    Every step is one of the three certified commutation rules; the
    derivation follows the exchange pattern of the nested (corner,
    pair-diagonal, triple-diagonal) triples stage by stage.
    """
    s = symmetric_triple_seq(t, stage)
    if stage == "x":
        return rewrite_step(s, 2, 0)
    s = bubble_to(s, "E_{1,y}", 6)
    if stage == "z":
        s = bubble_to(s, "E_{1,z}", 16)
        s = bubble_to(s, "G_{1,z}", 13)
        s = bubble_to(s, "E_{1,z}", 14)
        for lbl, tgt in [("V_z", 7), ("F_{1,z}", 8), ("G_{1,z}", 9),
                         ("E_{1,z}", 10)]:
            s = bubble_to(s, lbl, tgt)
        head = [("V_y", 2), ("G_{1,y}", 3), ("E_{1,y}", 4), ("V_z", 5),
                ("F_{1,z}", 6), ("G_{1,z}", 7), ("E_{1,z}", 8)]
    else:
        head = [("V_y", 2), ("G_{1,y}", 3), ("E_{1,y}", 4)]
    for lbl, tgt in head:
        s = bubble_to(s, lbl, tgt)
    s = rewrite_step(s, 2, 0)     # corner and first axis
    s = rewrite_step(s, 2, 2)     # triple diagonal into the pair face
    s = rewrite_step(s, 1, 3)
    s = rewrite_step(s, 3, 1)     # exchange axis corner / pair / index-1
    if stage == "y":
        return s
    s = rewrite_step(s, 2, 5)     # same pattern one level deeper
    s = rewrite_step(s, 1, 6)
    s = rewrite_step(s, 1, 7)
    s = rewrite_step(s, 3, 4)
    s = rewrite_step(s, 1, 6)
    s = rewrite_step(s, 1, 5)
    s = rewrite_step(s, 1, 3)
    s = rewrite_step(s, 1, 4)
    s = rewrite_step(s, 3, 2)
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
    the blowdown maps onto the three-step prefix (the single factor
    times the double space) with the product projection, re-based onto
    the symmetric space through the canonical face naming.
    """
    sym = symmetric_triple_seq(t, stage)
    space, _ = replay(sym)
    dt = reduce(t, TRIPLE_STAGES.index(stage))
    dbl = double_space(dt)
    projections = tuple(_triple_projection(t, stage, i, space, dbl)
                        for i in (1, 2, 3))
    return ASpaceTriple(space, projections)


def _triple_projection(t: Tower, stage: str, i: int, sym_space: Space,
                       dbl: ASpaceDouble) -> BMap:
    com1 = commuted_triple_seq(t, stage)
    com = relabel_seq(com1, i) if i != 1 else com1
    level = TRIPLE_STAGES.index(stage)
    top, maps = replay(com)
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


# ---------------------------------------------------------------------------
# stored reference tables (test fixtures; never used operationally)

def _tbl(d):
    return {k: tuple(sorted(v)) for k, v in d.items()}


REFERENCE_FACEMAP_Z1 = _tbl({
    "rf": ["H_3", "E_{2,x}", "E_{2,y}", "E_{2,z}"],
    "lf": ["H_2", "E_{3,x}", "E_{3,y}", "E_{3,z}"],
    "ff_zx": ["V_x", "E_{1,x}", "G_{2,y}", "G_{2,z}", "G_{3,y}", "G_{3,z}"],
    "ff_zy": ["V_y", "E_{1,y}", "G_{1,y}", "F_{2,z}", "F_{3,z}"],
    "ff_z": ["V_z", "E_{1,z}", "G_{1,z}", "F_{1,z}"],
    "interior": ["H_1"],
})

REFERENCE_FACEMAP_X1 = _tbl({
    "rf": ["H_3", "E_{2,x}"],
    "lf": ["H_2", "E_{3,x}"],
    "ff_x": ["V_x", "E_{1,x}"],
    "interior": ["H_1"],
})

REFERENCE_FACEMAP_Y1 = _tbl({
    "rf": ["H_3", "E_{2,x}", "E_{2,y}"],
    "lf": ["H_2", "E_{3,x}", "E_{3,y}"],
    "ff_yx": ["V_x", "E_{1,x}", "G_{2,y}", "G_{3,y}"],
    "ff_y": ["V_y", "E_{1,y}", "G_{1,y}"],
    "interior": ["H_1"],
})


def relabel_table(table: dict, i: int) -> dict:
    """Index-i table from the index-1 table by factor transposition.

    The left and right boundary roles follow the retained factors in
    increasing order; the transposition with 3 reverses that order, so
    the left and right classes swap there.
    """
    out = {h: tuple(sorted(_relabel_name(g, _SIGMA[i]) for g in faces))
           for h, faces in table.items()}
    if i == 3:
        out["lf"], out["rf"] = out["rf"], out["lf"]
    return out


def reference_table(stage: str, i: int) -> dict:
    base = {"x": REFERENCE_FACEMAP_X1, "y": REFERENCE_FACEMAP_Y1,
            "z": REFERENCE_FACEMAP_Z1}[stage]
    return relabel_table(base, i) if i != 1 else dict(base)


def verify_facemaps(t: Tower) -> dict:
    """Compare computed face tables of every stage and index against the
    stored reference tables.  Returns a report with any mismatches."""
    report = {"tables": 0, "mismatches": []}
    # the full triple space (stage z) exists at depth 2 only
    deepest = 2 if t.k == 2 else min(t.k, 1)
    for stage in TRIPLE_STAGES[:deepest + 1]:
        trip = triple_space(t, stage)
        for i in (1, 2, 3):
            got = face_table(trip.projections[i - 1])
            want = reference_table(stage, i)
            report["tables"] += 1
            for h in sorted(set(got) | set(want)):
                if tuple(got.get(h, ())) != tuple(want.get(h, ())):
                    report["mismatches"].append(
                        {"stage": stage, "projection": i, "face": h,
                         "got": got.get(h, ()), "want": want.get(h, ())})
    return report


CANONICAL_TOWER = Tower(2, (1, 1, 1), 1, (1, 1))


def relabel_projection(p1: BMap, i: int) -> BMap:
    """Index-i projection from the index-1 one, relabelled as in
    ``relabel_table``; the symmetric space is its own relabelling."""
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

"""Combinatorial model of corner spaces under quasihomogeneous blowup.

A space is described by its boundary hypersurfaces, their incidence, and
for each face the exact vanishing orders of a fixed family of reference
functions: the boundary coordinate of each product factor and the
pairwise difference of each coordinate level between factors.  Centers
of blowup are loci of the form (set of faces) intersected with the
strict transform of a partial product diagonal.  This is exactly the
family of centers arising in fibred double and triple space
constructions; anything outside it is rejected.

The engine never works with charts.  Every produced quantity (exponent
matrices, face images, density weights) is a function of the tracked
combinatorial data.  The update rules are each justified by the weighted
projective coordinates of a single blowup step:

* the valuation of a reference function on a new front face is the sum
  of its valuations over the faces containing the center, plus the
  blowup order if the residual of the function still cuts the center;
* a residual still cuts exactly when the center merges the pair of
  factors strictly deeper than the containing faces already did;
* incidence updates are star subdivision for corner centers, while
  diagonal centers keep all old strata and add front-face strata over
  every reachable corner, reachability being an exact rational
  feasibility problem on vanishing rates;
* two loci are certified disjoint when their face sets cannot meet, or
  when a face lies off the tracked meet set of a diagonal they lie in,
  from which each blowup drops the faces its center separates.

Representation.  Values are immutable and index themselves once, when
built.  A `Merge` keeps its per-level partitions plus the set of its
(level, pair) merges and each pair's deepest merged level, so `leq`,
`eq` and `maxlevel` are lookups; the deepest level alone would not do,
as `from_pairs` and `reduce_by` can merge a pair at a level but not at
a shallower one.  `join` is a per-level union-find with a bounded cache.
A `Locus` stores its hash, as a `Merge` does.  A `Face` keeps its
valuations in a dict; a front face is the one record of its blowup
step (center, order, rank and the closure rules' entry), and a space's
`history` is its front faces.  A `Space` indexes faces, level
dimensions and registered submanifolds by name.  Its strata and
tracked diagonal meet sets are bitmasks over face positions (faces are
only appended, so a bit names the same face in every later space), so
`meets`, `neighborhood`, the face closure of a locus and a meet-set
test are bit work; the meet sets are masks alone, in the order of the
key map that `_diag_keys` builds once per space shape.
A `BMap` stores its exponent matrix by rows, each domain face mapped to
its ((codomain face, e), ...) nonzeros, so an entry or a face image
reads one row and composition joins rows.

Memo scope.  `canon_merge`, `_closure`, `_reach`, `neighborhood` and
the rate system of each (face set, level -1 blocks) are pure, and are
memoized, one dict per method, inside the scope that `blowup` opens on
its space for the one step; outside it they are computed afresh.
`replay_scope` keeps one space per prefix that one engine call replays,
so no space outlives its call.  A prefix shares its faces, each step's
record among them, with the prefixes after it, and keeps no blowdown
map.  Certificates test merge data and reach bitmasks first, so few
lookups reach a closure.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence

INF = float("inf")


class EngineUnsupported(Exception):
    """Configuration outside the supported family of centers."""


class BlowupError(ValueError):
    """Invalid blowup request (unknown center, order deficit, bad locus)."""


class RewriteError(ValueError):
    """Requested commutation is not certified at this position."""


def _symkey(s):
    if s[0] == "x":
        return (0, s[1], ())
    return (1, s[1], tuple(sorted(s[2])))


# ---------------------------------------------------------------------------
# merge specifications: one partition of the factor set per coordinate level

_pair = functools.lru_cache(maxsize=1024)(frozenset)    # one per factor pair


def _partition(groups) -> frozenset:
    """Union-find closure of the groups; blocks of size < 2 are dropped."""
    parent = {}

    def find(i):
        parent.setdefault(i, i)
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for g in groups:
        g = list(g)
        for x in g[1:]:
            parent[find(x)] = find(g[0])
    blocks = {}
    for x in parent:
        blocks.setdefault(find(x), set()).add(x)
    return frozenset(frozenset(b) for b in blocks.values() if len(b) >= 2)


@dataclass(frozen=True)
class Merge:
    """Per-level partitions of the factor set (blocks of size >= 2 only).

    Level -1 is the boundary scale, levels 0..k the fibre levels.  A
    block at level l means the factors agree through that level.  Blocks
    are kept sorted by level, without empty levels.
    """

    blocks: tuple  # tuple of (level, frozenset-of-frozensets), sorted
    _at: dict = field(init=False, repr=False, compare=False)
    _pairs: frozenset = field(init=False, repr=False, compare=False)
    _deep: dict = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = tuple(sorted((lb for lb in self.blocks if lb[1]),
                              key=lambda lb: lb[0]))
        pairs, deep = set(), {}
        for l, blks in blocks:
            for b in blks:
                for p in itertools.combinations(sorted(b), 2):
                    p = _pair(p)
                    pairs.add((l, p))
                    deep[p] = max(deep.get(p, -2), l)
        set_ = functools.partial(object.__setattr__, self)
        set_("blocks", blocks)
        set_("_at", dict(blocks))
        set_("_pairs", frozenset(pairs))
        set_("_deep", deep)
        set_("_hash", hash(blocks))

    def __hash__(self):
        return self._hash

    @staticmethod
    def trivial() -> "Merge":
        return _TRIVIAL

    @staticmethod
    def diag(factors, top_level: int) -> "Merge":
        fs = frozenset(factors)
        if len(fs) < 2:
            return Merge.trivial()
        return Merge(tuple((l, frozenset({fs}))
                           for l in range(-1, top_level + 1)))

    @staticmethod
    def from_pairs(level_pairs) -> "Merge":
        """Build from an iterable of (level, pair)."""
        by_level = {}
        for l, p in level_pairs:
            by_level.setdefault(l, []).append(p)
        return Merge(tuple((l, _partition(ps)) for l, ps in by_level.items()))

    def at(self, level: int) -> frozenset:
        return self._at.get(level, frozenset())

    @property
    def trivial_p(self) -> bool:
        return not self.blocks

    def levels(self):
        return [l for l, _ in self.blocks]

    def join(self, other: "Merge") -> "Merge":
        if other._pairs <= self._pairs:
            return self
        if self._pairs <= other._pairs:
            return other
        return _join(self, other)

    def leq(self, other: "Merge") -> bool:
        """True if every merge of self is implied by other."""
        return self._pairs <= other._pairs

    def eq(self, other: "Merge") -> bool:
        return self._pairs == other._pairs

    def maxlevel(self, pair) -> int:
        """Deepest level merging the pair (-2 if never)."""
        return self._deep.get(frozenset(pair), -2)

    def pairs_at_level(self, level: int):
        for b in self.at(level):
            yield from (frozenset(p)
                        for p in itertools.combinations(sorted(b), 2))

    def all_pairs(self):
        return set(self._deep)

    def reduce_by(self, absorbed: "Merge") -> "Merge":
        """Drop the merges already realized at least as deep in `absorbed`.

        Kept pairs are re-joined level by level, so partially absorbed
        blocks survive as their quotient structure.
        """
        return Merge.from_pairs(
            (l, p) for l, p in self._pairs
            if absorbed.maxlevel(p) < self._deep[p])

    def canonical_key(self):
        return tuple((l, tuple(sorted(tuple(sorted(b)) for b in blks)))
                     for l, blks in self.blocks)


_TRIVIAL = Merge(())


@functools.lru_cache(maxsize=1024)
def _join(a: Merge, b: Merge) -> Merge:
    return Merge(tuple((l, _partition(itertools.chain(a.at(l), b.at(l))))
                       for l in a._at.keys() | b._at.keys()))


# ---------------------------------------------------------------------------
# loci and registered submanifolds

@dataclass(frozen=True)
class Locus:
    """Intersection of the listed faces with a diagonal strict transform.

    `pure` marks loci whose merge data is literally the strict transform
    of a product diagonal; preimage loci produced by blowup commutation
    carry residual families instead and are marked impure.
    """

    faces: frozenset
    merge: Merge = Merge.trivial()
    pure: bool = True
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash",
                           hash((self.faces, self.merge, self.pure)))

    def __hash__(self):
        return self._hash

    @property
    def is_corner(self) -> bool:
        return self.merge.trivial_p


def corner(*faces) -> Locus:
    return Locus(frozenset(faces))


def diag_locus(factors, top_level, *faces) -> Locus:
    return Locus(frozenset(faces), Merge.diag(factors, top_level))


# faceless locus of a tracked (factors, level) diagonal, built once
_tracked_diag = functools.lru_cache(maxsize=256)(lambda key: diag_locus(*key))


@dataclass(frozen=True)
class PSub:
    """Registered submanifold: vanishing data plus definedness order."""

    locus: Locus
    order: float = INF


# ---------------------------------------------------------------------------
# exact feasibility of vanishing-rate systems (tiny Fourier-Motzkin)

def _fm_feasible(rows, n):
    """Feasibility of {t in Q^n : row . (t, 1) >= 0 for all rows}.

    Eliminations only multiply and add, so integer rows stay exact.
    """
    for var in range(n):
        pos, neg, new = [], [], []
        for r in rows:
            c = r[var]
            (pos if c > 0 else neg if c < 0 else new).append(r)
        for rp in pos:
            for rn in neg:
                a, b = -rn[var], rp[var]
                new.append(tuple(x * a + y * b for x, y in zip(rp, rn)))
        rows = new
    return all(r[-1] >= 0 for r in rows)


def _unit_row(n, k, const=0):
    """Row of t_k + const >= 0 over n rate variables."""
    row = [0] * (n + 1)
    row[k], row[-1] = 1, const
    return row


# ---------------------------------------------------------------------------
# faces and spaces

@dataclass(frozen=True)
class Face:
    name: str
    step: int                      # -1 for base faces
    order: int                     # creation blowup order, 0 for base
    v: tuple                       # sorted ((symbol, order), ...)
    merged: Merge
    center: Optional[Locus] = None
    rank: int = 0                  # interior rank of the residual cut
    # a front face's `_hist` entry: (its bit, center face mask, center merge)
    hist: Optional[tuple] = field(default=None, repr=False, compare=False)
    _vals: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_vals", dict(self.v))

    def val(self, symbol) -> int:
        return self._vals.get(symbol, 0)

    @property
    def is_front(self) -> bool:
        return self.step >= 0


def _memo_scope(fn):
    """Open a memo scope on the space (first argument) while fn runs."""
    @functools.wraps(fn)
    def wrapper(space, *args, **kwargs):
        if space._memo is not None:
            return fn(space, *args, **kwargs)
        object.__setattr__(space, "_memo", collections.defaultdict(dict))
        try:
            return fn(space, *args, **kwargs)
        finally:
            object.__setattr__(space, "_memo", None)
    return wrapper


def _memoized(method):
    """Memoize a one-argument Space method while a memo scope is open."""
    @functools.wraps(method)
    def wrapper(self, arg):
        if self._memo is None:
            return method(self, arg)
        memo = self._memo[method]
        out = memo.get(arg)
        if out is None:
            out = memo[arg] = method(self, arg)
        return out
    return wrapper


@dataclass(frozen=True)
class Space:
    """Immutable corner space; blowups return new values."""

    name: str
    n_factors: int
    dims: tuple                    # ((level, dim), ...), level -1 first
    faces: tuple
    strata: frozenset              # maximal jointly-meeting face bitmasks
    diag_meets: tuple              # face masks, in `_diag_keys` order
    registry: tuple                # ((name, PSub), ...)
    _index: dict = field(init=False, repr=False, compare=False)
    _dims: dict = field(init=False, repr=False, compare=False)
    _registered: dict = field(init=False, repr=False, compare=False)
    _gt: dict = field(init=False, repr=False, compare=False)
    _hist: tuple = field(init=False, repr=False, compare=False)
    _memo: Optional[dict] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        set_ = functools.partial(object.__setattr__, self)
        set_("_index", {f.name: k for k, f in enumerate(self.faces)})
        set_("_dims", dict(self.dims))
        set_("_registered", dict(self.registry))
        set_("_memo", None)
        # (i, j) -> faces where x_i vanishes to higher order than x_j
        set_("_gt", {(i, j): sum(1 << k for k, f in enumerate(self.faces)
                                 if f.val(("x", i)) > f.val(("x", j)))
                     for i, j in itertools.permutations(
                         range(1, self.n_factors + 1), 2)})
        set_("_hist", tuple(f.hist for f in self.faces if f.is_front))

    # -- basic queries --------------------------------------------------

    @property
    def history(self) -> tuple:
        """The front faces, one per blowup step, in blowup order."""
        return tuple(f for f in self.faces if f.is_front)

    def face(self, name: str) -> Face:
        return self.faces[self._index[name]]

    @property
    def face_names(self):
        return tuple(self._index)

    def val(self, face_name: str, symbol) -> int:
        return self.face(face_name).val(symbol)

    def dim_of_level(self, level: int) -> int:
        return self._dims[level]

    @property
    def levels(self):
        return tuple(l for l, _ in self.dims)

    def _mask(self, face_names) -> int:
        out = 0
        for f in face_names:
            out |= 1 << self._index[f]
        return out

    def _names(self, mask: int) -> list:
        return [f.name for k, f in enumerate(self.faces) if mask >> k & 1]

    def meets(self, face_names) -> bool:
        try:
            s = self._mask(face_names)
        except KeyError:
            return False
        return any(s & m == s for m in self.strata)

    def registered(self, name: str) -> PSub:
        return self._registered[name]

    @_memoized
    def _nbr(self, mask: int) -> int:
        out = 0
        for m in self.strata:
            if m & mask == mask:
                out |= m
        return out & ~mask

    def neighborhood(self, face_names) -> list:
        return self._names(self._nbr(self._mask(face_names)))

    @_memoized
    def _reach(self, mask: int) -> int:
        """Bound on the `_closure` of every locus on these faces.

        The pair rule adds faces of `_nbr(cl)` <= `mask | _nbr(mask)`; the
        history rule adds front faces whose centers are inside, and a
        center names only earlier faces, so one forward pass suffices.
        """
        out = mask | self._nbr(mask)
        for bit, cmask, _ in self._hist:
            if cmask & out == cmask:
                out |= bit
        return out

    # -- rate feasibility ------------------------------------------------

    def rates_feasible(self, required, optional, blocks) -> bool:
        """Can the required faces vanish jointly at positive rates while
        the boundary coordinates of each level -1 block keep equal rates?
        `blocks` is a merge's `at(-1)`, the only merge data read here.
        Infeasibility proves the region empty; feasibility proves nothing."""
        supp = list(dict.fromkeys(list(required) + list(optional)))
        n, req = len(supp), set(required)
        rows = [_unit_row(n, k, -(f in req)) for k, f in enumerate(supp)]
        for block in blocks:
            i0, *rest = sorted(block)
            for i in rest:
                row = [self.val(f, ("x", i)) - self.val(f, ("x", i0))
                       for f in supp] + [0]
                rows += [row, [-c for c in row]]
        return _fm_feasible(rows, n)

    # -- derived locus predicates -----------------------------------------

    def _faces_merged(self, faces) -> Merge:
        return functools.reduce(
            Merge.join, (self.face(f).merged for f in faces), _TRIVIAL)

    @_memoized
    def canon_merge(self, locus: Locus) -> Merge:
        """Locus merge completed by the merged data of its faces.

        Points of the locus inherit every infinitesimal agreement
        carried by a face they lie on.
        """
        return locus.merge.join(self._faces_merged(locus.faces))

    @_memoized
    def _closure(self, locus: Locus) -> int:
        """Mask of the faces provably containing the locus.

        Growth rules: a merged boundary coordinate lagging behind its
        partner along a listed face must pick up its unique available
        compensating face; and the front face of any past step whose
        center is implied by the locus contains the lift.
        """
        cl = self._mask(locus.faces)
        cm = self.canon_merge(locus)
        pairs = [p for b in cm.at(-1)
                 for p in itertools.combinations(sorted(b), 2)]
        gt = self._gt
        changed = True
        while changed:
            changed = False
            for i, j in pairs:
                rest = cl
                while rest:
                    h = rest & -rest
                    rest ^= h
                    if h & gt[j, i]:
                        lo, hi = i, j
                    elif h & gt[i, j]:
                        lo, hi = j, i
                    else:
                        continue
                    cands = self._nbr(cl) & gt[lo, hi]
                    if cands and not cands & (cands - 1) and not cands & cl:
                        cl |= cands
                        changed = True
            for bit, cmask, m in self._hist:
                if not cl & bit and cmask & cl == cmask and m.leq(cm):
                    cl |= bit
                    changed = True
        return cl

    def locus_contained_in(self, inner: Locus, outer: Locus) -> bool:
        """True if every constraint of outer provably holds on inner."""
        try:
            om = self._mask(outer.faces)
        except KeyError:
            return False
        return (om & self._closure(inner) == om
                and outer.merge.leq(self.canon_merge(inner)))

    def locus_nonempty_certificate(self, locus: Locus) -> bool:
        """Necessary conditions for nonemptiness; False proves empty."""
        if locus.faces and not self.meets(locus.faces):
            return False
        m = locus.merge
        if locus.pure:
            # a pure locus lies inside the tracked strict transform of
            # each of its diagonal blocks; residual (impure) loci do not
            inside = [(b, l) for l, blks in m.blocks for b in blks]
        else:
            # a residual locus still lies inside the strict transform of
            # any pair diagonal whose depth exceeds everything the faces
            # carry for that pair
            fm = self._faces_merged(locus.faces)
            inside = [(p, m.maxlevel(p)) for p in m.all_pairs()
                      if fm.maxlevel(p) < m.maxlevel(p)]
        lm = self._mask(locus.faces)
        pos = _diag_keys(self.n_factors, self.levels)
        if any(key in pos and lm & ~self.diag_meets[pos[key]]
               for key in inside):
            return False
        if not locus.faces:
            return True
        # rate balance only for the locus's own diagonal constraints:
        # face-inherited merges do not force equal leading orders at the
        # face's deeper strata
        return self._rates_on((locus.faces, m.at(-1)))

    @_memoized
    def _rates_on(self, key) -> bool:
        """`rates_feasible` of a (faces, level -1 blocks) key."""
        req = sorted(key[0])
        return self.rates_feasible(req, self.neighborhood(req), key[1])

    def _fibre_witness(self, C: Locus, forced, hstar, joint: Locus) -> bool:
        """Search for a front-face fibre point of both cones.

        Rate variables s_H (one per center face) describe the position
        inside the weighted octant over a generic point of the joint
        locus; faces provably containing either locus must degenerate
        (s >= 1), the face hstar stays at unit scale (s = 0), and merged
        boundary coordinates must balance.  Coordinates carried by faces
        of the joint closure outside the center balance freely.
        """
        sc = sorted(C.faces)
        carriers = self._names(self._closure(joint) & ~self._mask(C.faces))
        free = [i for i in range(1, self.n_factors + 1)
                if any(self.val(h, ("x", i)) > 0 for h in carriers)]
        n = len(sc) + len(free)
        rows = []
        for k, h in enumerate(sc):
            rows.append(_unit_row(n, k, -(h in forced)))
            if h == hstar:
                rows.append([-c for c in rows[-1]])  # s_hstar <= 0
        rows += [_unit_row(n, k) for k in range(len(sc), n)]
        for pair in joint.merge.pairs_at_level(-1):
            i, j = sorted(pair)
            diff = ([self.val(h, ("x", i)) - self.val(h, ("x", j))
                     for h in sc]
                    + [(m == i) - (m == j) for m in free] + [0])
            rows += [diff, [-c for c in diff]]
        return _fm_feasible(rows, n)

    def separated_by(self, t1: Locus, t2: Locus, step: Face) -> bool:
        """Did `step`'s blowup provably separate the strict transforms?

        Requires the joint locus to be contained in the center (with
        neither locus swallowed whole), every interior direction of the
        center to be pinned by the joint merge data, and no fibre point
        of both cones to survive over the front face.  The conditions
        are pure, so they run cheapest first: names, merges, the reach
        of the joint faces (a bitmask bound on the joint closure), the
        joint closure, then each locus's closure and the fibre witness.
        """
        C = step.center
        if step.name in t1.faces or step.name in t2.faces:
            return False
        if not C.merge.leq(self.canon_merge(t1).join(self.canon_merge(t2))):
            return False
        cmask = self._mask(C.faces)
        if cmask & ~self._reach(self._mask(t1.faces | t2.faces)):
            return False
        joint = Locus(t1.faces | t2.faces, t1.merge.join(t2.merge),
                      t1.pure and t2.pure)
        if not self.locus_contained_in(joint, C):
            return False
        if self.locus_contained_in(t1, C) or self.locus_contained_in(t2, C):
            return False
        forced = frozenset(self._names(self._mask(C.faces) & (
            self._closure(t1) | self._closure(t2))))
        for hstar in sorted(C.faces - forced):
            if self._fibre_witness(C, forced, hstar, joint):
                return False
        return True

    def disjoint(self, t1: Locus, t2: Locus) -> bool:
        """Sound disjointness certificate (False proves nothing)."""
        joint = Locus(t1.faces | t2.faces, t1.merge.join(t2.merge),
                      t1.pure and t2.pure)
        return not self.locus_nonempty_certificate(joint)

    def psub_meets(self, name: str) -> frozenset:
        """Faces a registered submanifold still meets."""
        t = self.registered(name).locus
        out = set(t.faces)
        for f in self.face_names:
            if f not in out and not self.disjoint(t, Locus(frozenset({f}))):
                out.add(f)
        return frozenset(out)


# ---------------------------------------------------------------------------
# b-maps

@dataclass(frozen=True, eq=False)
class BMap:
    """Boundary-respecting map: integer exponent matrix plus face images."""

    domain: Space
    codomain: Space
    rows: dict                     # dom_face -> ((cod_face, e), ...) nonzeros
    step: Optional[Face] = None    # front face of a single blowdown

    @property
    def domain_faces(self):
        return self.domain.face_names

    @property
    def codomain_faces(self):
        return self.codomain.face_names

    @property
    def exponents(self) -> tuple:
        """((dom_face, cod_face, e), ...) nonzeros, row by row."""
        return tuple((g, h, e) for g, row in self.rows.items()
                     for h, e in row)

    def exponent(self, g: str, h: str) -> int:
        for b, e in self.rows.get(g, ()):
            if b == h:
                return e
        return 0

    def face_map(self, g: str):
        """Image faces (empty frozenset: maps onto the interior)."""
        return frozenset(h for h, _ in self.rows.get(g, ()))

    def matrix(self):
        return [[self.exponent(g, h) for h in self.codomain_faces]
                for g in self.domain_faces]


def bmap_from_entries(dom: Space, cod: Space, entries, step=None) -> BMap:
    rows = {}
    for g, h, e in entries:
        e = int(e)
        if e < 0:
            raise ValueError("exponent matrix entries must be >= 0")
        if e:
            rows.setdefault(g, []).append((h, e))
    return BMap(dom, cod, {g: tuple(r) for g, r in rows.items()}, step)


def compose(f: BMap, g: BMap) -> BMap:
    """Composite map: apply f first, then g."""
    if f.codomain.face_names != g.domain.face_names:
        raise ValueError("b-map composition: face lists do not match")
    rows = {}
    for a in f.domain_faces:
        row = {}
        for c, e in f.rows.get(a, ()):
            for d, e2 in g.rows.get(c, ()):
                row[d] = row.get(d, 0) + e * e2
        if row:
            rows[a] = tuple(sorted(row.items()))
    return BMap(f.domain, g.codomain, rows)


def identity_bmap(space: Space) -> BMap:
    return bmap_from_entries(space, space,
                             [(f, f, 1) for f in space.face_names])


def is_b_fibration(f: BMap) -> bool:
    """Row criterion: every face maps onto a face of codimension <= 1."""
    return all(len(f.face_map(g)) <= 1 for g in f.domain_faces)


# ---------------------------------------------------------------------------
# construction: products and blowups

def product_space(n_factors: int, dims, name: str = "",
                  face_names: Optional[Sequence[str]] = None) -> Space:
    """Product of one-boundary-face factors with shared level structure.

    `dims` maps fibre level (0..k) to dimension; the boundary scale
    level -1 has dimension 1 per factor.  All pairwise and higher
    diagonals initially meet every face.
    """
    if n_factors < 1:
        raise ValueError("need at least one factor")
    dim_items = tuple(sorted(dims.items()))
    if any(l < 0 for l, _ in dim_items):
        raise ValueError("fibre levels are 0..k")
    all_dims = ((-1, 1),) + dim_items
    if face_names is None:
        face_names = tuple(f"H_{i}" for i in range(1, n_factors + 1))
    if len(face_names) != n_factors:
        raise ValueError("need one face name per factor")
    faces = tuple(
        Face(fn, -1, 0, ((("x", i), 1),), Merge.trivial())
        for i, fn in enumerate(face_names, start=1))
    full = (1 << n_factors) - 1
    keys = _diag_keys(n_factors, tuple(l for l, _ in all_dims))
    return Space(name or f"product^{n_factors}", n_factors, all_dims,
                 faces, frozenset({full}), (full,) * len(keys), ())


def _corner_cut_pairs(space: Space, center: Locus) -> list:
    """Pairs of factors whose boundary coordinates both vanish on the
    faces of the center."""
    vanish = [i for i in range(1, space.n_factors + 1)
              if sum(space.val(f, ("x", i)) for f in center.faces) >= 1]
    return [frozenset(p) for p in itertools.combinations(vanish, 2)]


def merged_of_new_face(space: Space, center: Locus) -> Merge:
    """Merge data the front face of this center will carry."""
    m = space._faces_merged(center.faces)
    if center.is_corner:
        return m.join(Merge.from_pairs(
            (-1, p) for p in _corner_cut_pairs(space, center)))
    return m.join(center.merge)


def center_rank(space: Space, center: Locus, dims=None) -> int:
    """Interior rank of the residual cut of the center.

    Pairs merged at least as deep by the containing faces are already
    part of the face structure and do not count; the remaining quotient
    classes of each block contribute dimension-many constraints each.
    An explicit level-dimension mapping overrides the space's own.
    """
    if center.is_corner:
        return 0
    face_merged = space._faces_merged(center.faces)
    total = 0
    for l, blks in center.merge.blocks:
        d = dims[l] if dims is not None else space.dim_of_level(l)
        if d == 0:
            continue
        for b in blks:
            absorbed = _partition(
                p for p in itertools.combinations(sorted(b), 2)
                if face_merged.maxlevel(p) >= center.merge.maxlevel(p))
            classes = len(b) - sum(len(c) - 1 for c in absorbed)
            total += d * (classes - 1)
    return total


def blowup_weights(space: Space, orders=None, dims=None) -> dict:
    """Cumulative blowup weight of each face.

    A step of order a whose center has interior rank m gives its front
    face a*m plus the weights of the faces containing the center.  Given
    a tower's orders and level dimensions, the history is re-weighted
    for that tower: a center merging factors through level l - 1 (l = 0
    for a corner) takes order a_l, and its rank is recounted in dims.
    """
    w = dict.fromkeys(space.face_names, Fraction(0))
    for ff in space.history:
        a, m = ff.order, ff.rank
        if orders is not None:
            a = orders[max(ff.center.merge.levels(), default=-1) + 1]
            m = center_rank(space, ff.center, dims)
        w[ff.name] = sum((w[h] for h in ff.center.faces), a * m)
    return w


def _residual_cut(space: Space, center: Locus, face_merged: Merge,
                  level: int, pair) -> bool:
    """Does the center's residual constrain this difference function?"""
    if center.is_corner:
        return (level == -1 and pair in _corner_cut_pairs(space, center)
                and face_merged.maxlevel(pair) < -1)
    cm = center.merge.maxlevel(pair)
    if cm < level:
        return False
    return cm > face_merged.maxlevel(pair)


@functools.lru_cache(maxsize=64)
def _all_symbols(n_factors: int, levels: tuple) -> tuple:
    """Reference functions of a space shape, sorted by `_symkey`."""
    syms = [("x", i) for i in range(1, n_factors + 1)]
    for p in itertools.combinations(range(1, n_factors + 1), 2):
        syms += [("d", l, _pair(p)) for l in levels]
    return tuple(sorted(syms, key=_symkey))


@functools.lru_cache(maxsize=64)
def _diag_keys(n_factors: int, levels: tuple) -> dict:
    """Position in `diag_meets` of each tracked (factors, level) key."""
    keys = ((frozenset(s), l) for r in range(2, n_factors + 1)
            for s in itertools.combinations(range(1, n_factors + 1), r)
            for l in levels)
    return {key: k for k, key in enumerate(keys)}


def _new_strata(space: Space, center: Locus) -> frozenset:
    """Strata after blowing up the center; the front face is the next bit."""
    cmask = space._mask(center.faces)
    ff = 1 << len(space.faces)
    holding = [m for m in space.strata if m & cmask == cmask]
    if center.is_corner:           # star subdivision
        new = {m for m in space.strata if m & cmask != cmask}
        new.update(m & ~(1 << space._index[f]) | ff
                   for m in holding for f in center.faces)
    else:                          # the face sets holding the center
        new, tots = set(space.strata), set()
        for m in holding:
            sub = rest = m & ~cmask
            while True:
                tots.add(sub | cmask)
                if not sub:
                    break
                sub = (sub - 1) & rest
        new.update(tot | ff for tot in tots if not space.disjoint(
            center, Locus(frozenset(space._names(tot)))))
    maximal = []
    for s in sorted(new, key=int.bit_count, reverse=True):
        if not any(s & t == s for t in maximal):
            maximal.append(s)
    return frozenset(maximal)


@_memo_scope
def blowup(space: Space, center, a: int, label: str = ""):
    """Blow up a center to order a; returns (new space, blowdown map).

    The center may be a Locus, a PSub, or a registered-submanifold name.
    Registered submanifolds are lifted; diagonal tracking and incidence
    are updated by the documented rules.
    """
    if isinstance(center, str):
        ps = space.registered(center)
        c, defined = ps.locus, ps.order
    elif isinstance(center, PSub):
        c, defined = center.locus, center.order
    else:
        c, defined = center, INF
    if not label:
        label = f"ff{len(space._hist)}"
    if type(a) is not int or a < 1:
        raise BlowupError("blowup order must be a positive integer")
    if defined != INF and defined < a:
        raise BlowupError(
            f"center defined only to order {defined}; cannot blow up to {a}")
    unknown = [f for f in c.faces if f not in space._index]
    if unknown:
        raise BlowupError(f"center references unknown faces {unknown}")
    if not c.faces:
        raise BlowupError("center must vanish on at least one face")
    if len(c.faces) == 1 and c.is_corner:
        # blowing up a whole boundary hypersurface changes nothing
        return space, identity_bmap(space)
    if not space.meets(c.faces):
        raise BlowupError(f"center faces {sorted(c.faces)} do not meet")
    if not space.locus_nonempty_certificate(c):
        raise BlowupError(f"center at {sorted(c.faces)} is provably empty")
    if not c.is_corner:
        heavy = [f for f in c.faces
                 if any(s[0] == "d" and o > 0 for s, o in space.face(f).v)]
        if len(heavy) > 1:
            raise EngineUnsupported(
                "diagonal center spanning several diagonal-bearing faces")
    if label in space._index:
        raise BlowupError(f"face name {label} already in use")

    cmask, ffbit = space._mask(c.faces), 1 << len(space.faces)
    face_merged = space._faces_merged(c.faces)
    vals = []
    for s in _all_symbols(space.n_factors, space.levels):
        o = sum(space.val(f, s) for f in c.faces)
        if s[0] == "d" and _residual_cut(space, c, face_merged, s[1], s[2]):
            o += a
        if o:
            vals.append((s, o))
    ff = Face(label, len(space._hist), a, tuple(vals),
              merged_of_new_face(space, c), c, center_rank(space, c),
              (ffbit, cmask, c.merge))

    strata = _new_strata(space, c)

    # faces whose reach holds the center: only they can be separated
    separable = {1 << k: Locus(frozenset({f.name}))
                 for k, f in enumerate(space.faces)
                 if not cmask & ~space._reach(1 << k)}
    new_dmeets = []
    for key, ms in zip(_diag_keys(space.n_factors, space.levels),
                       space.diag_meets):
        dloc = _tracked_diag(key)
        out = ms
        for bit, h in separable.items():
            if ms & bit and space.separated_by(dloc, h, ff):
                out &= ~bit
        if not cmask & ~ms and not space.disjoint(dloc, c):
            out |= ffbit
        new_dmeets.append(out)

    lifted = ((name, _lift(space, ps, ff)) for name, ps in space.registry)
    new_reg = tuple((name, ps) for name, ps in lifted if ps is not None)

    new = Space(space.name, space.n_factors, space.dims,
                space.faces + (ff,), strata, tuple(new_dmeets), new_reg)

    entries = [(f.name, f.name, 1) for f in space.faces]
    entries += [(label, h, 1) for h in sorted(c.faces)]
    return new, bmap_from_entries(new, space, entries, ff)


def register(space: Space, name: str, psub: PSub) -> Space:
    if any(n == name for n, _ in space.registry):
        raise ValueError(f"submanifold {name} already registered")
    for f in psub.locus.faces:
        space.face(f)
    return replace(space, registry=space.registry + ((name, psub),))


def _lift(old: Space, S: PSub, ff: Face) -> Optional[PSub]:
    """Lift of S through one blowup of `old`; None when it is fully resolved.

    Either S is contained in the blown-up center (lift lives in the
    front face, definedness order drops by the blowup order) or S closes
    up off the center (strict transform, unchanged).
    """
    c, a = ff.center, ff.order
    if not old.locus_contained_in(S.locus, c):
        return S
    if S.order != INF and S.order <= a:
        return None
    lifted = Locus((S.locus.faces - c.faces) | {ff.name}, S.locus.merge)
    return PSub(lifted, S.order if S.order == INF else S.order - a)


def lift(beta: BMap, S: PSub) -> PSub:
    """Lift a submanifold under a single blowdown map."""
    if beta.step is None:
        raise ValueError("lift needs a single blowdown map")
    out = _lift(beta.codomain, S, beta.step)
    if out is None:
        raise BlowupError(
            "submanifold order deficit: fully resolved, lift undefined")
    return out


# ---------------------------------------------------------------------------
# blowup sequences and the commutation rewrite rules

@dataclass(frozen=True)
class CenterExpr:
    """Replayable center description: faces by name, diagonal by merge."""

    label: str
    faces: tuple
    merge: Merge = Merge.trivial()
    order: int = 1
    pure: bool = True

    def locus(self) -> Locus:
        return Locus(frozenset(self.faces), self.merge, self.pure)


@dataclass(frozen=True)
class BlowupSeq:
    base: Space
    entries: tuple

    def labels(self):
        return tuple(e.label for e in self.entries)

    def index_of(self, label: str) -> int:
        return self.labels().index(label)


_replays = None                 # the open replay scope's prefixes


@contextlib.contextmanager
def replay_scope():
    """Share replayed prefixes among the replays inside (a ``with`` block
    or a decorated call); nested scopes use the outermost one's dict."""
    global _replays
    outer, _replays = _replays, {} if _replays is None else _replays
    try:
        yield
    finally:
        _replays = outer


@replay_scope()
def replay(seq: BlowupSeq, upto: Optional[int] = None) -> Space:
    """Execute the sequence (its first `upto` entries); returns the space.

    Each prefix runs once per replay scope, and a replay opens its own.
    A front face records its center, so the blowdown maps are not kept.
    """
    entries = seq.entries[:upto]
    if not entries:
        return seq.base
    key = (seq.base, entries)
    if key not in _replays:
        e = entries[-1]
        _replays[key], _ = blowup(replay(seq, len(entries) - 1), e.locus(),
                                  e.order, e.label)
    return _replays[key]


def rewrite_step(seq: BlowupSeq, rule: int, position: int) -> BlowupSeq:
    """Apply one blowup-commutation rule at the given position.

    Rule 1 swaps adjacent blowups of certified-disjoint centers.  Rule 2
    swaps a nested adjacent pair of equal orders (first center contained
    in the second), replacing the inner center by its preimage in the
    new front face.  Rule 3 exchanges a cleanly intersecting triple
    (y, lift of y-cap-w, lift of w) into (w, lift of y-cap-w, lift of
    y); the middle blowup order switches from w's to y's.

    Front-face labels follow the loci they resolve, so replaying the
    rewritten sequence reproduces the same named faces.
    """
    es = seq.entries
    p = position
    span = {1: 2, 2: 2, 3: 3}.get(rule)
    if span is None:
        raise ValueError("rule must be 1, 2 or 3")
    if not 0 <= p <= len(es) - span:
        raise RewriteError(f"rule {rule} needs {span} entries at {p}")
    if rule == 1:
        y, w = es[p], es[p + 1]
        if y.label in w.faces:
            raise RewriteError(
                f"{w.label} references the front face of {y.label}")
        space = replay(seq, p)
        if not space.disjoint(y.locus(), w.locus()):
            raise RewriteError(
                f"no disjointness certificate for {y.label} / {w.label}")
        return BlowupSeq(seq.base, es[:p] + (w, y) + es[p + 2:])

    if rule == 2:
        a_e, b_e = es[p], es[p + 1]
        if a_e.label in b_e.faces:
            raise RewriteError(
                f"{b_e.label} references the front face of {a_e.label}")
        if a_e.order != b_e.order:
            raise RewriteError("nested swap needs equal blowup orders")
        space = replay(seq, p)
        A, B = a_e.locus(), b_e.locus()
        if not space.locus_contained_in(A, B):
            raise RewriteError(f"{a_e.label} not contained in {b_e.label}")
        pm = merged_of_new_face(space, B)
        a_new = CenterExpr(a_e.label,
                           tuple(sorted((A.faces - B.faces) | {b_e.label})),
                           A.merge.reduce_by(pm), a_e.order, pure=False)
        return BlowupSeq(seq.base, es[:p] + (b_e, a_new) + es[p + 2:])

    if rule == 3:
        y_e, a_e, w_e = es[p], es[p + 1], es[p + 2]
        if a_e.order != w_e.order:
            raise RewriteError("triple exchange needs matching outer orders")
        if y_e.label in w_e.faces or a_e.label in w_e.faces:
            raise RewriteError(
                f"{w_e.label} must be expressible before {y_e.label}")
        space = replay(seq, p)
        Y, W = y_e.locus(), w_e.locus()
        A = Locus(Y.faces | W.faces, Y.merge.join(W.merge))
        pm_y = merged_of_new_face(space, Y)
        want_faces = frozenset((A.faces - Y.faces) | {y_e.label})
        if frozenset(a_e.faces) != want_faces:
            raise RewriteError(
                f"middle entry {a_e.label} is not the lift of the intersection")
        face_m = space._faces_merged(A.faces)
        got = a_e.merge.join(pm_y).join(face_m)
        want = A.merge.join(pm_y).join(face_m)
        if not got.eq(want):
            raise RewriteError("middle entry merge data does not match")
        pm_w = merged_of_new_face(space, W)
        a_new = CenterExpr(a_e.label,
                           tuple(sorted((A.faces - W.faces) | {w_e.label})),
                           A.merge.reduce_by(pm_w.join(
                               space._faces_merged(A.faces - W.faces))),
                           y_e.order, pure=False)
        y_new = CenterExpr(y_e.label, y_e.faces, y_e.merge, y_e.order,
                           pure=y_e.pure)
        return BlowupSeq(seq.base, es[:p] + (w_e, a_new, y_new) + es[p + 3:])


def bubble_to(seq: BlowupSeq, label: str, target: int) -> BlowupSeq:
    """Move the labeled entry to the target index by adjacent swaps
    of certified-disjoint centers (rule 1)."""
    i = seq.index_of(label)
    while i > target:
        seq = rewrite_step(seq, 1, i - 1)
        i -= 1
    while i < target:
        seq = rewrite_step(seq, 1, i)
        i += 1
    return seq


# ---------------------------------------------------------------------------
# isomorphism of spaces

def _face_signature(f: Face, weight: Fraction):
    return (f.is_front, weight, f.v, f.merged.canonical_key())


def isomorphic(X: Space, Y: Space, incidence: str = "exact"):
    """Face bijection preserving front-face-ness, valuations (hence total
    blowdown exponent data), cumulative blowup weights, merge structure,
    incidence, and registered submanifolds.  Returns the bijection or
    None.

    Creation orders are construction history, not invariants: rule 3
    of ``rewrite_step`` moves a blowup order from one step to another.

    With incidence="exact" the pairwise meeting relations must agree.
    With incidence="within", X's meetings must map into Y's: this is the
    right comparison when Y was produced by replaying a commuted blowup
    sequence, whose incidence relation is a certified over-approximation
    (separation facts carried by the rewrite history are not always
    visible in the final sequence).  Any other value is a ValueError.
    """
    if incidence not in ("exact", "within"):
        raise ValueError(f"unknown incidence {incidence!r}")
    if len(X.faces) != len(Y.faces) or X.dims != Y.dims:
        return None
    sigX, sigY = {}, {}
    for S, sig in ((X, sigX), (Y, sigY)):
        w = blowup_weights(S)
        for f in S.faces:
            sig.setdefault(_face_signature(f, w[f.name]), []).append(f.name)
    if set(sigX) != set(sigY):
        return None
    if any(len(sigX[s]) != len(sigY[s]) for s in sigX):
        return None

    groups = sorted(sigX, key=lambda s: (len(sigX[s]), repr(s)))
    assign: dict = {}

    def check_final():
        names = X.face_names
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                mx = X.meets({a, b})
                my = Y.meets({assign[a], assign[b]})
                if incidence == "exact" and mx != my:
                    return None
                if incidence == "within" and mx and not my:
                    return None
        regX, regY = dict(X.registry), dict(Y.registry)
        if set(regX) != set(regY):
            return None
        for name, ps in regX.items():
            q = regY[name]
            if frozenset(assign[f] for f in ps.locus.faces) != q.locus.faces:
                return None
            if not ps.locus.merge.eq(q.locus.merge) or ps.order != q.order:
                return None
        return dict(assign)

    def backtrack(gi):
        if gi == len(groups):
            return check_final()
        s = groups[gi]
        xs, ys = sigX[s], sigY[s]
        for perm in itertools.permutations(ys):
            for a, b in zip(xs, perm):
                assign[a] = b
            out = backtrack(gi + 1)
            if out is not None:
                return out
            for a in xs:
                del assign[a]
        return None

    return backtrack(0)


# ---------------------------------------------------------------------------
# DOT export

def export_dot(space: Space, title: str = "") -> str:
    """Face lattice as a graph: incidence edges plus blowup ancestry."""
    lines = [f'graph "{title or space.name}" {{']
    for f in space.faces:
        if f.is_front:
            desc = "+".join(sorted(f.center.faces))
            if not f.center.is_corner:
                desc += "&diag"
            lines.append(f'  "{f.name}" [shape=box, label="{f.name}\\n'
                         f'center {desc}, order {f.order}"];')
        else:
            lines.append(f'  "{f.name}" [shape=ellipse];')
    names = space.face_names
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if space.meets({a, b}):
                lines.append(f'  "{a}" -- "{b}";')
    for f in space.faces:
        if f.is_front:
            for h in sorted(f.center.faces):
                lines.append(f'  "{f.name}" -- "{h}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"

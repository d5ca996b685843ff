"""Exact arithmetic on index sets, index families and weight vectors.

An index set is a discrete subset of C x N0 closed under three rules:
only finitely many points with real part below any cutoff, downward
closure in the log power, and invariance under adding 1 to the leading
exponent.  We store only the finite antichain of maximal generators;
every query expands the closure lazily.  All exponents are Gaussian
rationals, so every comparison in this module is exact.

Points interact only within an integer coset z + Z.  The kernels work
on a transient coset form {(Im num, Im den, r, d): [(q, p), ...]}, real
part q + r/d with 0 <= r < d, so their arithmetic is on ints: ``_sum``
adds two coset keys once, then integer parts and log powers.  Within a
coset the closure is a count per real part, a point (z, p) counting
p + 1, and under the extended union the counts add: ``_sweep`` passes
each coset once over all its arguments, each shifted inside the sweep,
and keeps the terms where the total rises; one set swept alone is its
antichain.  ``normalize``, ``add``, ``ext_union_many`` and ``shift``
wrap the two kernels and build IndexTerms only for their results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

INF = math.inf


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


@dataclass(frozen=True, order=False)
class CxRat:
    """Gaussian rational: exact real and imaginary parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", _as_fraction(self.re))
        object.__setattr__(self, "im", _as_fraction(self.im))

    def __add__(self, other: "CxRat") -> "CxRat":
        if isinstance(other, (int, Fraction)):
            other = CxRat(other)
        return CxRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "CxRat") -> "CxRat":
        if isinstance(other, (int, Fraction)):
            other = CxRat(other)
        return CxRat(self.re - other.re, self.im - other.im)

    def __mul__(self, other) -> "CxRat":
        if isinstance(other, (int, Fraction)):
            return CxRat(self.re * other, self.im * other)
        return CxRat(self.re * other.re - self.im * other.im,
                     self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        return f"{self.re}{'+' if self.im >= 0 else ''}{self.im}i"


def cx(re, im=0) -> CxRat:
    return CxRat(_as_fraction(re), _as_fraction(im))


@dataclass(frozen=True)
class IndexTerm:
    """A single pair (z, p): leading exponent and log power."""

    z: CxRat
    p: int

    def __post_init__(self):
        if not isinstance(self.z, CxRat):
            object.__setattr__(self, "z", cx(self.z))
        if type(self.p) is not int:
            raise TypeError("log power must be an int")
        if self.p < 0:
            raise ValueError("log power must be nonnegative")


def term(re, im=0, p=0) -> IndexTerm:
    return IndexTerm(cx(re, im), p)


@dataclass(frozen=True)
class IndexSet:
    """Closure of a finite generator set, stored as an antichain.

    The empty generator set is the empty index set; gen {(0,0)} is the
    index set of smooth functions.
    """

    generators: frozenset

    def __bool__(self):
        return bool(self.generators)

    @property
    def is_empty(self) -> bool:
        return not self.generators

    def sorted_generators(self) -> list:
        return sorted(self.generators,
                      key=lambda t: (t.z.re, t.z.im, t.p))

    def __str__(self):
        if self.is_empty:
            return "empty"
        return "{" + ", ".join(f"({t.z},{t.p})" for t in self.sorted_generators()) + "}"


EMPTY = IndexSet(frozenset())
SMOOTH = IndexSet(frozenset({term(0)}))


def _rat_add(a: int, b: int, c: int, d: int) -> tuple:
    """a/b + c/d in lowest terms, as (numerator, denominator)."""
    n, m = a * d + c * b, b * d
    g = math.gcd(n, m)
    return n // g, m // g


def _key_add(k: tuple, l: tuple) -> tuple:
    """Coset key of the sums of points of the cosets k and l, and carry."""
    im = _rat_add(k[0], k[1], l[0], l[1])
    n, d = _rat_add(k[2], k[3], l[2], l[3])
    return im + (n % d, d), n // d


def _cosets(terms: Iterable[IndexTerm]) -> dict:
    """Coset form {(Im num, Im den, r, d): [(q, p), ...]}; Re = q + r/d."""
    out = {}
    for t in terms:
        re, im = t.z.re, t.z.im
        q, r = divmod(re.numerator, re.denominator)
        out.setdefault((im.numerator, im.denominator, r, re.denominator),
                       []).append((q, t.p))
    return out


def _indexset(cosets: dict) -> IndexSet:
    """The index set generated by a coset form."""
    out = []
    for (a, b, r, d), qps in cosets.items():
        im = Fraction(a, b)
        out.extend(IndexTerm(CxRat(Fraction(q * d + r, d), im), p)
                   for q, p in qps)
    return IndexSet(frozenset(out))


def _sum(A: dict, B: dict) -> dict:
    """Pairwise sums of two coset forms, one key sum per pair of cosets."""
    out = {}
    for k, xs in A.items():
        for l, ys in B.items():
            key, c = _key_add(k, l)
            out.setdefault(key, []).extend(
                (q + s + c, p + u) for q, p in xs for s, u in ys)
    return out


def _sweep(parts: Sequence[tuple]) -> dict:
    """Extended union of coset forms, each (C, a, b) shifted by a - b.

    Per coset, at each real part the count is the sum over the parts of
    the largest p + 1 each reaches there; the terms sit where it rises.
    Swept alone, one coset form comes out as its antichain.
    """
    groups = {}
    for i, (C, a, b) in enumerate(parts):
        n, d = _rat_add(a.numerator, a.denominator,
                        -b.numerator, b.denominator)
        if n:       # a shift is a sum with the point (n/d, 0)
            C = _sum(C, {(0, 1, n % d, d): [(n // d, 0)]})
        for key, qps in C.items():
            groups.setdefault(key, []).extend((q, i, p) for q, p in qps)
    out = {}
    for key, group in groups.items():
        group.sort()
        count, total, emitted = {}, 0, 0
        keep = out[key] = []
        for q, at_q in groupby(group, key=itemgetter(0)):
            for _, i, p in at_q:
                gain = p + 1 - count.get(i, 0)
                if gain > 0:
                    count[i] = p + 1
                    total += gain
            if total > emitted:
                keep.append((q, total - 1))
                emitted = total
    return out


def normalize(terms: Iterable[IndexTerm]) -> IndexSet:
    """Antichain of maximal generators; closure-equal inputs agree."""
    return _indexset(_sweep([(_cosets(terms), 0, 0)]))


def make(*pairs) -> IndexSet:
    """Convenience constructor: make((re, p), ...) or make((re, im, p), ...)."""
    ts = []
    for pr in pairs:
        if len(pr) == 2:
            ts.append(term(pr[0], 0, pr[1]))
        else:
            ts.append(term(pr[0], pr[1], pr[2]))
    return normalize(ts)


def contains(G: IndexSet, t: IndexTerm) -> bool:
    """Membership of (z, p) in the closure of G: a generator on its coset
    at or below its real part with at least its log power."""
    [(key, [(q, p)])] = _cosets([t]).items()
    return any(s <= q and u >= p
               for s, u in _cosets(G.generators).get(key, ()))


def inf_re(G: IndexSet):
    """Minimum real part over the closure (+inf for the empty set)."""
    if G.is_empty:
        return INF
    return min(g.z.re for g in G.generators)


def add(G: IndexSet, H: IndexSet) -> IndexSet:
    """Pairwise sums of the two closures; empty is absorbing."""
    return _indexset(_sweep([(_sum(_cosets(G.generators),
                                   _cosets(H.generators)), 0, 0)]))


def ext_union(G: IndexSet, H: IndexSet) -> IndexSet:
    """Union plus matched terms with log power p' + p'' + 1.

    Generators of the two arguments whose exponents differ by an integer
    (equal imaginary parts) overlap from the later real part onwards and
    contribute one extra log power there.  Terms on distinct integer
    cosets never interact.
    """
    return ext_union_many((G, H))


def ext_union_many(sets: Sequence[IndexSet]) -> IndexSet:
    """Extended union of all the sets, one sweep per coset."""
    return _indexset(_sweep([(_cosets(G.generators), 0, 0) for G in sets]))


def shift(G: IndexSet, w) -> IndexSet:
    """Shift every exponent by the rational w; empty stays empty."""
    if w == INF:
        return EMPTY
    w = _as_fraction(w)
    return _indexset(_sweep([(_cosets(G.generators), w, 0)])) if w else G


def divide(G: IndexSet, e: int) -> IndexSet:
    """Divide exponents by the positive integer e.

    Each generator g expands into the e coset representatives (g + j)/e,
    j = 0..e-1, whose joint closure is the pointwise division of the
    closure of g.  Log powers are unchanged.
    """
    if e == 1:
        return G
    if e < 1:
        raise ValueError("division exponent must be >= 1")
    out = []
    for g in G.generators:
        for j in range(e):
            out.append(IndexTerm(CxRat((g.z.re + j) / e, g.z.im / e), g.p))
    return normalize(out)


def closure_window(G: IndexSet, re_max, p_max: int) -> frozenset:
    """Materialized closure up to bounds: the semantic reference.

    Expands generators directly by the defining rules (downward log
    powers, +1 steps on the exponent), so it is independent of the
    generator-level arithmetic above and serves as the test oracle.
    """
    re_max = _as_fraction(re_max)
    out = set()
    for g in G.generators:
        n = 0
        while g.z.re + n <= re_max:
            for q in range(0, min(g.p, p_max) + 1):
                out.add((g.z.re + n, g.z.im, q))
            n += 1
    return frozenset(out)


def windowed_eq(G: IndexSet, H: IndexSet, re_max, p_max: int) -> bool:
    """Exact equality of the two closures inside the window."""
    return closure_window(G, re_max, p_max) == closure_window(H, re_max, p_max)


# ---------------------------------------------------------------------------
# index families and weight vectors

@dataclass(frozen=True)
class IndexFamily:
    """One index set per boundary hypersurface of a fixed face list."""

    faces: tuple
    assignment: Mapping[str, IndexSet]

    def __post_init__(self):
        miss = [f for f in self.faces if f not in self.assignment]
        if miss:
            raise ValueError(f"index family not total; missing {miss}")
        extra = [f for f in self.assignment if f not in self.faces]
        if extra:
            raise ValueError(f"index family has unknown faces {extra}")
        object.__setattr__(self, "faces", tuple(self.faces))
        object.__setattr__(self, "assignment",
                           {f: self.assignment[f] for f in self.faces})

    def __getitem__(self, face: str) -> IndexSet:
        return self.assignment[face]

    def replace(self, **sets) -> "IndexFamily":
        new = dict(self.assignment)
        new.update(sets)
        return IndexFamily(self.faces, new)

    def windowed_eq(self, other: "IndexFamily", re_max, p_max: int) -> bool:
        return self.faces == other.faces and all(
            windowed_eq(self[f], other[f], re_max, p_max) for f in self.faces)


def family(faces: Sequence[str], **sets) -> IndexFamily:
    """Build a family; unnamed faces default to the empty index set."""
    return IndexFamily(tuple(faces), {f: sets.get(f, EMPTY) for f in faces})


@dataclass(frozen=True)
class WeightVector:
    """Rational weight per face, defaulting to zero."""

    assignment: Mapping[str, Fraction]

    def __post_init__(self):
        object.__setattr__(
            self, "assignment",
            {f: _as_fraction(w) for f, w in self.assignment.items() if w != 0})

    def __getitem__(self, face: str) -> Fraction:
        return self.assignment.get(face, Fraction(0))

    def __add__(self, other: "WeightVector") -> "WeightVector":
        faces = set(self.assignment) | set(other.assignment)
        return WeightVector({f: self[f] + other[f] for f in faces})

    def __neg__(self) -> "WeightVector":
        return WeightVector({f: -w for f, w in self.assignment.items()})

    def __eq__(self, other):
        if not isinstance(other, WeightVector):
            return NotImplemented
        faces = set(self.assignment) | set(other.assignment)
        return all(self[f] == other[f] for f in faces)


def weights(**assignment) -> WeightVector:
    return WeightVector(assignment)


# ---------------------------------------------------------------------------
# pullback and pushforward along b-maps
#
# The map argument only needs the combinatorial data of a b-map: the
# face lists `domain_faces` and `codomain_faces` and the integer entries
# `exponent(g, h)`.  corner_spaces BMap satisfies this protocol and reads
# an entry from one row of its matrix.

def pullback_family(f, E: IndexFamily) -> IndexFamily:
    """Transform a codomain family into a domain family along f.

    For each domain face G the exponents are combined over all codomain
    faces H with e(G, H) != 0: exponents add with multiplicity e, log
    powers add.  A row of zeros yields the smooth index set; an empty
    contributing set forces the empty set.
    """
    dom = tuple(f.domain_faces)
    cod = tuple(f.codomain_faces)
    if set(E.faces) != set(cod):
        raise ValueError("family does not live on the codomain of the map")
    out = {}
    for g in dom:
        hs = [h for h in cod if f.exponent(g, h) != 0]
        if not hs:
            out[g] = SMOOTH
            continue
        if any(E[h].is_empty for h in hs):
            out[g] = EMPTY
            continue
        acc = SMOOTH
        for h in hs:
            e = f.exponent(g, h)
            scaled = normalize(IndexTerm(t.z * e, t.p) for t in E[h].generators)
            acc = add(acc, scaled)
        out[g] = acc
    return IndexFamily(dom, out)


def pushforward_family(f, E: IndexFamily):
    """Transform a domain family into a codomain family along f.

    Returns (family, violations).  At each codomain face H the result is
    the extended union over domain faces G with e(G, H) > 0 of the
    division of E(G) by e(G, H).  Faces with an all-zero exponent row map
    onto the whole codomain; those with inf Re <= 0 are reported as
    violations of the integrability condition, never raised here.
    """
    dom = tuple(f.domain_faces)
    cod = tuple(f.codomain_faces)
    if set(E.faces) != set(dom):
        raise ValueError("family does not live on the domain of the map")
    violations = []
    for g in dom:
        if all(f.exponent(g, h) == 0 for h in cod):
            v = inf_re(E[g])
            if v != INF and v <= 0:
                violations.append(g)
    out = {}
    for h in cod:
        pieces = []
        for g in dom:
            e = f.exponent(g, h)
            if e > 0:
                pieces.append(divide(E[g], e))
        out[h] = ext_union_many(pieces)
    return IndexFamily(cod, out), violations


def pullback_weights(f, w: WeightVector) -> WeightVector:
    """Pull a codomain weight vector back along the exponent matrix."""
    carried = [(h, v) for h, v in w.assignment.items()
               if h in f.codomain_faces]
    return WeightVector({g: sum((f.exponent(g, h) * v for h, v in carried),
                                Fraction(0))
                         for g in f.domain_faces})


# ---------------------------------------------------------------------------
# serialization: rationals as "n/d" strings, bit-exact round trip

def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def indexset_to_json(G: IndexSet) -> list:
    return [[_frac_str(t.z.re), _frac_str(t.z.im), t.p]
            for t in G.sorted_generators()]


def indexset_from_json(data) -> IndexSet:
    """[[re, im, p], ...] with exact rational parts and integer p."""
    if not isinstance(data, list) or any(type(p) is not int
                                         for _, _, p in data):
        raise TypeError("an index set is a list of [re, im, p], p an integer")
    return normalize(IndexTerm(cx(re, im), p) for re, im, p in data)


def family_to_json(E: IndexFamily) -> dict:
    return {f: indexset_to_json(E[f]) for f in E.faces}


def family_from_json(faces: Sequence[str], data: Mapping) -> IndexFamily:
    unknown = sorted(set(data) - set(faces))
    if unknown:
        raise ValueError(f"unknown face {', '.join(map(repr, unknown))}")
    return IndexFamily(tuple(faces),
                       {f: indexset_from_json(data.get(f, [])) for f in faces})


def weights_to_json(w: WeightVector) -> dict:
    return {f: _frac_str(v) for f, v in sorted(w.assignment.items())}

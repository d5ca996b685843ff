"""Operator classes of the full calculus as index-family bookkeeping.

An operator class is a conormal order plus an index family over the five
double-space faces.  Composition transforms the two families through the
triple space: pull back along the outer projections, add the composition
weight vector, push forward along the middle projection, and shift back
by the double-space weights.  ``composition_plan`` derives that pipeline
once from the closed face-table rule of the triple projections, so
``compose`` runs one sum per distinct pair of factor faces and one
shifted extended union per double face.  These intermediates stay in
the integer coset form of ``index_algebra``; only the five output sets
become ``IndexSet``s.  The full pullback and pushforward pipeline along
the replayed projections is kept as the test oracle for the plan.  The
deepest-face closed form, the mapping rule for polyhomogeneous inputs,
adjoints, conjugation, the parametrix remainder ledger and the
compactness thresholds are all stated at this class level.  Nothing
here loads the corner engine, and the closed-form weights are imported
only past the depth and integrability checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

from . import index_algebra as ia
from .index_algebra import (EMPTY, INF, SMOOTH, IndexFamily, IndexSet, add,
                            ext_union_many, family, inf_re, make, shift)
from .tower import (Tower, double_face_names, facemap_rule, require_depth_2,
                    triple_face_names)

NEG_INF = -math.inf
DOUBLE_FACES = double_face_names(2)
LEDGER_MAX_POWER = 5    # remainder powers the ledger re-verifies


class NonIntegrable(ValueError):
    """Composition or action violates the strict integrability condition."""

    def __init__(self, faces):
        self.faces = tuple(faces)
        super().__init__(
            f"integrability fails at {', '.join(map(str, self.faces))}")


@dataclass(frozen=True)
class OperatorClass:
    """Conormal order plus index family over (rf, lf, ff_zx, ff_zy, ff_z)."""

    order: object                  # Fraction or -inf
    family: IndexFamily
    tower: Tower

    def __post_init__(self):
        if tuple(self.family.faces) != DOUBLE_FACES:
            raise ValueError("operator class family must live on the "
                             "five double-space faces")

    @property
    def is_small(self) -> bool:
        return all(self.family[f].is_empty for f in DOUBLE_FACES[:-1])

    def __str__(self):
        return (f"order {self.order}; " +
                "; ".join(f"{f}: {self.family[f]}" for f in DOUBLE_FACES))


def small(t: Tower, m, c) -> OperatorClass:
    """Small-calculus class: boundary-weight c at the deepest face only.

    c may be +inf, giving the residual class with empty family
    everywhere (kernels vanishing to infinite order at every face).
    """
    order = m if m == NEG_INF else Fraction(m)
    ffz = EMPTY if c == INF else make((Fraction(c), 0))
    return OperatorClass(order, family(DOUBLE_FACES, ff_z=ffz), t)


def op_class(t: Tower, m, **sets) -> OperatorClass:
    order = m if m == NEG_INF else Fraction(m)
    return OperatorClass(order, family(DOUBLE_FACES, **sets), t)


def _order_sum(a, b):
    if a == NEG_INF or b == NEG_INF:
        return NEG_INF
    return Fraction(a) + Fraction(b)


def _composition_tower(P: OperatorClass, Q: OperatorClass) -> Tower:
    if P.tower != Q.tower:
        raise ValueError("operator classes live over different towers")
    require_depth_2(P.tower, "composition")
    return P.tower


def _require_integrable(G: IndexSet, H: IndexSet, where: str) -> None:
    """Strict integrability: inf Re of G + H must be positive."""
    if inf_re(G) + inf_re(H) <= 0:
        raise NonIntegrable([where])


@lru_cache(maxsize=1)
def composition_plan() -> tuple:
    """The composition pipeline compiled from the triple face tables.

    Each triple projection maps a face into at most one double face with
    exponent 1, so its table is ``facemap_rule("z", i)``.  A triple face
    g pulls back the P face pi_3(g) and the Q face pi_1(g) (no face gives
    the smooth set).  Returns (pairs, null, terms): the distinct (P
    faces, Q faces) pairs; the faces pi_2 maps into the interior, which
    map onto the whole double space and carry the integrability check;
    and for each double face h the faces g with pi_2(g) = h.  Faces come
    as (g, pair) in the blowup order of ``triple_face_names``.
    """
    pi1, pi2, pi3 = ({g: (h,) for h in DOUBLE_FACES
                      for g in facemap_rule("z", i)[h]} for i in (1, 2, 3))
    faces = [(g, (pi3.get(g, ()), pi1.get(g, ())))
             for g in triple_face_names(2)]
    null = tuple((g, pq) for g, pq in faces if g not in pi2)
    terms = {h: tuple((g, pq) for g, pq in faces if pi2.get(g) == (h,))
             for h in DOUBLE_FACES}
    pairs = tuple(dict.fromkeys(pq for _, pq in faces))
    return pairs, null, terms


def compose(P: OperatorClass, Q: OperatorClass) -> OperatorClass:
    """Class of the composite operator via the compiled triple-space plan.

    The pair sums and the shifted sweeps stay in coset form; only the
    five output index sets become ``IndexSet``s.  Requires inf Re of P
    at the right face plus Q at the left face to be strictly positive;
    the same condition surfaces as a pushforward violation at the face
    projecting onto the whole double space.
    """
    t = _composition_tower(P, Q)
    _require_integrable(P.family["rf"], Q.family["lf"], "rf/lf")
    from . import densities as dn
    pairs, null, terms = composition_plan()
    W_a = dn.triple_weights(t).W_a
    violations = [g for g, (pf, qf) in null if W_a[g] + sum(map(inf_re, [
        P.family[f] for f in pf] + [Q.family[f] for f in qf])) <= 0]
    if violations:
        raise NonIntegrable(violations)
    cP, cQ = ({f: ia._cosets(X.family[f].generators) for f in DOUBLE_FACES}
              for X in (P, Q))
    sums = {}
    for pf, qf in pairs:
        sets = [cP[f] for f in pf] + [cQ[f] for f in qf]
        sums[pf, qf] = (reduce(ia._sum, sets) if sets
                        else ia._cosets(SMOOTH.generators))
    W, w = W_a.assignment, dn.double_weights(t).w_a.assignment
    K = {h: ia._indexset(ia._sweep([(sums[pq], W.get(g, 0), w.get(h, 0))
                                    for g, pq in terms[h]]))
         for h in DOUBLE_FACES}
    return OperatorClass(_order_sum(P.order, Q.order),
                         IndexFamily(DOUBLE_FACES, K), t)


def ffz_closed_form(P: OperatorClass, Q: OperatorClass) -> IndexSet:
    """Deepest-face index set of the composite, by the four-term rule:
    the deepest-face sum, extended-united with the right-left cross term
    shifted by gamma_z, the middle-face terms shifted by gamma_z and by
    gamma_z - gamma_y."""
    _composition_tower(P, Q)
    _require_integrable(P.family["rf"], Q.family["lf"], "rf/lf")
    from . import densities as dn
    gy, gz = dn.gamma(P.tower)
    I, J = P.family, Q.family
    return ext_union_many([
        add(I["ff_z"], J["ff_z"]),
        shift(add(I["lf"], J["rf"]), gz),
        shift(add(I["ff_zx"], J["ff_zx"]), gz),
        shift(add(I["ff_zy"], J["ff_zy"]), gz - gy),
    ])


def act(P: OperatorClass, I: IndexSet) -> IndexSet:
    """Index set of the image of a polyhomogeneous input.

    Requires inf Re of P at the right face plus the input set to be
    strictly positive.
    """
    _require_integrable(P.family["rf"], I, "rf")
    J, cI = P.family, ia._cosets(I.generators)
    return ia._indexset(ia._sweep([(ia._cosets(J["lf"].generators), 0, 0)] + [
        (ia._sum(ia._cosets(J[f].generators), cI), 0, 0)
        for f in DOUBLE_FACES[2:]]))


def adjoint(P: OperatorClass) -> OperatorClass:
    """Swap the left and right faces; all other data unchanged."""
    fam = P.family.replace(rf=P.family["lf"], lf=P.family["rf"])
    return OperatorClass(P.order, fam, P.tower)


def conjugate_x(P: OperatorClass, alpha):
    """Conjugation by a power of the boundary defining function.

    Small-calculus classes are invariant.  For full-calculus classes the
    right face shifts by +alpha and the left face by -alpha; this branch
    extends the stated small-calculus invariance and is flagged as such.
    """
    alpha = Fraction(alpha)
    if P.is_small or alpha == 0:
        return P, "small calculus: invariant under x-power conjugation"
    fam = P.family.replace(rf=shift(P.family["rf"], alpha),
                           lf=shift(P.family["lf"], -alpha))
    return OperatorClass(P.order, fam, P.tower), \
        "derived extension: full-calculus conjugation shifts rf/lf"


# ---------------------------------------------------------------------------
# parametrix ledger

@dataclass(frozen=True)
class LedgerStep:
    description: str
    rule: str
    inputs: tuple
    output: OperatorClass
    checks: tuple = ()             # human-readable verified inclusions


@dataclass(frozen=True)
class Ledger:
    tower: Tower
    order: object
    steps: tuple

    def verify(self) -> bool:
        """True when every check recorded at construction passed; reads
        the stored verdicts and re-runs nothing."""
        for st in self.steps:
            for chk in st.checks:
                if not chk[0]:
                    return False
        return True


def _contained_small(P: OperatorClass, c) -> bool:
    """Class contained in the small class with boundary weight c."""
    if any(not P.family[f].is_empty for f in DOUBLE_FACES[:-1]):
        return False
    target = EMPTY if c == INF else make((Fraction(c), 0))
    got = P.family["ff_z"]
    if got.is_empty:
        return True
    if c == INF:
        return False
    return all(ia.contains(target, g) for g in got.generators)


def parametrix_ledger(t: Tower, m) -> Ledger:
    """Remainder chain of the parametrix construction, re-verified.

    Symbol inversion leaves a remainder one order lower; its asymptotic
    Neumann sum leaves a smoothing remainder; correcting the boundary
    model leaves a smoothing remainder with one extra power of the
    boundary function, whose powers gain one power each (verified by
    composition); the second asymptotic sum reaches the residual class;
    left and right parametrices are then patched.
    """
    m = Fraction(m)
    steps = []

    q1 = small(t, -m, 0)
    r1 = small(t, -1, 0)
    checks = []
    acc = r1
    for n in range(2, LEDGER_MAX_POWER + 1):
        acc = compose(acc, r1)
        checks.append((acc.order == -n and _contained_small(acc, 0),
                       f"remainder^{n} has order {-n}"))
    steps.append(LedgerStep(
        "invert the principal symbol; remainder is one order lower",
        "symbol sequence exactness", (f"class of order {m}", str(q1)),
        r1, tuple(checks)))

    rs = small(t, NEG_INF, 0)
    steps.append(LedgerStep(
        "asymptotically sum the Neumann series of the remainder",
        "asymptotic completeness of the symbol filtration",
        (str(r1),), rs, ((rs.order == NEG_INF, "smoothing order"),)))

    rf1 = small(t, NEG_INF, 1)
    checks = []
    acc = rf1
    for n in range(2, LEDGER_MAX_POWER + 1):
        acc = compose(acc, rf1)
        checks.append((
            _contained_small(acc, n),
            f"boundary-corrected remainder^{n} gains x^{n}"))
    steps.append(LedgerStep(
        "correct by the inverted boundary model; remainder vanishes to "
        "first order at the boundary",
        "exactness of the boundary-model sequence", (str(rs),),
        rf1, tuple(checks)))

    rfinal = small(t, NEG_INF, INF)
    steps.append(LedgerStep(
        "asymptotically sum the boundary Neumann series",
        "asymptotic completeness of the boundary filtration",
        (str(rf1),), rfinal,
        ((rfinal.family["ff_z"].is_empty, "residual class reached"),)))

    steps.append(LedgerStep(
        "patch the left and right parametrices; both remainders land in "
        "the residual class",
        "two-sided patching identity", (str(rfinal),), rfinal, ()))
    return Ledger(t, m, tuple(steps))


# ---------------------------------------------------------------------------
# compactness predicates

def compact(p, k) -> bool:
    """Compactness threshold: positive boundary weight, negative order."""
    return Fraction(p) > 0 and Fraction(k) < 0


def hilbert_schmidt(p, k, t: Tower) -> bool:
    """Square-integrable kernel threshold: boundary weight above half the
    deepest density weight minus one, order below minus half the
    dimension."""
    if t.k < 1:
        raise ValueError("the Hilbert-Schmidt threshold needs tower depth "
                         f">= 1, got depth {t.k}")
    from . import densities as dn
    gz = dn.gamma(t)[-1]
    return (Fraction(p) > Fraction(gz - 1, 2)
            and Fraction(k) < Fraction(-t.dim, 2))


# ---------------------------------------------------------------------------
# serialization

def class_to_json(P: OperatorClass) -> dict:
    return {"order": None if P.order == NEG_INF else ia._frac_str(P.order),
            "family": ia.family_to_json(P.family)}


def class_from_json(t: Tower, data) -> OperatorClass:
    order = (NEG_INF if data.get("order") is None
             else ia._as_fraction(data["order"]))
    fam = data.get("family", {})
    if not isinstance(fam, dict):
        raise TypeError("an operator class family is a JSON object")
    return OperatorClass(order, ia.family_from_json(DOUBLE_FACES, fam), t)


def ledger_to_json(led: Ledger) -> list:
    out = []
    for st in led.steps:
        out.append({"description": st.description, "rule": st.rule,
                    "inputs": list(st.inputs),
                    "output": class_to_json(st.output),
                    "checks": [{"ok": bool(ok), "what": what}
                               for ok, what in st.checks]})
    return out

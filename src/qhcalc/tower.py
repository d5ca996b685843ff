"""Towers of boundary fibrations, the names of their levels and faces.

A tower records the depth, the tangency orders and the fibre dimensions
of a nested family of boundary fibrations.  Level l is stage x, y, z, u
and creates the pair-diagonal family E, G, F, D for l = 0..3; beyond, the
level number follows u and D (stage u4, face D4_{i,u4}), and
``parse_name`` reads every name back.  The face-table rule of the triple
projections and the depth errors (``_DEPTH_2``) live here too, and need
no corner engine; ``a_spaces`` re-exports every name here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


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


_DEPTH_2 = {"triple": "triple space needs", "weights": "weight tables need",
            "composition": "operator composition needs",
            "model": "model operators need"}


def require_depth_2(t: Tower, what: str) -> None:
    """The one depth check of every construction that stops at depth 2,
    as ``_DEPTH_2`` names its error; it needs no corner engine, so a
    command runs it before loading one."""
    if t.k != 2:
        raise ValueError(f"{_DEPTH_2[what]} tower depth 2")


# ---------------------------------------------------------------------------
# level names and face names

def _letter(letters: str, l: int) -> str:
    return letters[l] if l < 4 else f"{letters[3]}{l}"


def stage_name(l: int) -> str:
    return _letter("xyzu", l)


def family_name(c: int, i: int, l: int) -> str:
    """Face of the family created at level c, factor index i, lifted to
    level l: family_name(0, 1, 2) is E_{1,z}."""
    return f"{_letter('EGFD', c)}_{{{i},{stage_name(l)}}}"


_NAME = re.compile(r"(?:V_|([EGFD])(\d*)_\{([123]),)([xyzu])(\d*)\}?")


def parse_name(name: str):
    """(c, i, l) of a family face name, (None, None, l) of V_l, and None
    of any name this module does not write."""
    m = _NAME.fullmatch(name)
    if m is None:
        return None
    c = (int(m[2]) if m[2] else "EGFD".index(m[1])) if m[1] else None
    i, l = m[3] and int(m[3]), int(m[5]) if m[5] else "xyzu".index(m[4])
    ok = name == (family_name(c, i, l) if m[1] else f"V_{stage_name(l)}")
    return (c, i, l) if ok else None


def stage_level(stage: str) -> int:
    """Level of a stage name, read back as that of its V_ name."""
    parsed = parse_name(f"V_{stage}")
    if parsed is None:
        raise ValueError(f"no triple space stage {stage!r}")
    return parsed[2]


def double_face_names(k: int) -> tuple:
    """rf, lf and the front faces, deepest level first: ff_zx, ff_zy,
    ff_z at depth 2."""
    top = stage_name(k)
    return (("rf", "lf") + tuple(f"ff_{top}{stage_name(s)}" for s in range(k))
            + (f"ff_{top}",))


def triple_face_names(level: int) -> tuple:
    """Faces of the stage-level triple space in blowup order: H_1..H_3,
    then per level l the triple diagonal V_l, the family new at l and the
    lift of every earlier family, newest first."""
    names = ["H_1", "H_2", "H_3"]
    for l in range(level + 1):
        names.append(f"V_{stage_name(l)}")
        names += [family_name(c, i, l)
                  for c in range(l, -1, -1) for i in (1, 2, 3)]
    return tuple(names)


def facemap_rule(stage: str, i: int) -> dict:
    """Face table of projection i at a stage, by the closed rule.

    H_i maps into the interior and the other two H faces onto lf and rf
    in factor order.  V_l and the index-i face of every family at level
    l go to ff_l.  The other faces of the family new at level 0 go to lf
    or rf by their retained factor; those of a family new at level
    c >= 1 go to ff_{c-1}.
    """
    faces = double_face_names(stage_level(stage))
    ff = faces[2:]
    side = dict(zip(sorted({1, 2, 3} - {i}), ("lf", "rf")))
    out = {h: [] for h in faces + ("interior",)}
    for j in (1, 2, 3):
        out[side.get(j, "interior")].append(f"H_{j}")
    for l in range(len(ff)):
        out[ff[l]].append(f"V_{stage_name(l)}")
        for c in range(l + 1):
            for j in (1, 2, 3):
                h = ff[l] if j == i else ff[c - 1] if c else side[6 - i - j]
                out[h].append(family_name(c, j, l))
    return {h: tuple(sorted(v)) for h, v in out.items()}

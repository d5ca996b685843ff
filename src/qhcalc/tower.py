"""Towers of boundary fibrations and the face names of their spaces.

A tower records the depth, the tangency orders and the fibre dimensions
of a nested family of boundary fibrations; the face names of its spaces
and the closed face-table rule of the triple projections live here too.
None of it needs a corner engine, so a command that reads only a tower,
an operator class, the weights or a model operator loads this module
and not ``corner_spaces``; ``a_spaces`` re-exports every name here.
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


# the constructions that stop at depth 2, as their depth errors name them
_DEPTH_2 = {"triple": "triple space needs", "weights": "weight tables need"}


def require_depth_2(t: Tower, what: str) -> None:
    """The one depth check of the triple space and the weight tables; it
    needs no corner engine, so a command runs it before loading one."""
    if t.k != 2:
        raise ValueError(f"{_DEPTH_2[what]} tower depth 2")


# ---------------------------------------------------------------------------
# level letters and face names

# level l is stage TRIPLE_STAGES[l] of the triple space, and FAMILIES[l]
# is the pair-diagonal family it creates; the parser reads both tuples
TRIPLE_STAGES = ("x", "y", "z", "u")
FAMILIES = ("E", "G", "F", "D")
_FAMILY_NAME = re.compile(
    rf"([{''.join(FAMILIES)}])_\{{([123]),([{''.join(TRIPLE_STAGES)}])\}}$")


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
    if k >= 3:
        return ("rf", "lf") + tuple(f"ff_{j}" for j in range(k + 1))
    top = TRIPLE_STAGES[k]
    return (("rf", "lf") + tuple(f"ff_{top}{s}" for s in TRIPLE_STAGES[:k])
            + (f"ff_{top}",))


def triple_face_names(level: int) -> tuple:
    """Faces of the stage-level triple space in blowup order: H_1..H_3,
    then per level l the triple diagonal V_l, the family new at l and the
    lift of every earlier family, newest first."""
    names = ["H_1", "H_2", "H_3"]
    for l in range(level + 1):
        names.append(f"V_{TRIPLE_STAGES[l]}")
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

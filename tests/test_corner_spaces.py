"""Blowup engine: construction, lifting, commutation, isomorphism."""

import dataclasses

import pytest

from qhcalc import corner_spaces as cs
from qhcalc.corner_spaces import (BlowupSeq, CenterExpr, Locus, Merge, PSub,
                                  blowup, bubble_to, compose, corner,
                                  diag_locus, identity_bmap, is_b_fibration,
                                  isomorphic, lift, product_space, register,
                                  replay, rewrite_step)


def quadrant():
    return product_space(2, {0: 1}, face_names=("x1", "x2"))


def test_product_space_two_factors():
    sp = product_space(2, {0: 1}, face_names=("lf", "rf"))
    assert sp.face_names == ("lf", "rf")
    assert sp.meets({"lf", "rf"})


def test_product_space_three_factors_edges_and_vertex():
    sp = product_space(3, {0: 1, 1: 1, 2: 1})
    assert sp.face_names == ("H_1", "H_2", "H_3")
    for pair in ({"H_2", "H_3"}, {"H_1", "H_3"}, {"H_1", "H_2"}):
        assert sp.meets(pair)
    assert sp.meets({"H_1", "H_2", "H_3"})


def test_product_space_single_factor():
    sp = product_space(1, {0: 2})
    assert sp.face_names == ("H_1",)


def test_corner_blowup_exponents():
    sp = quadrant()
    new, beta = blowup(sp, corner("x1", "x2"), 1, "ff")
    assert new.face_names == ("x1", "x2", "ff")
    assert beta.exponent("ff", "x1") == 1 and beta.exponent("ff", "x2") == 1
    assert beta.exponent("x1", "x1") == 1 and beta.exponent("x1", "x2") == 0
    # the old corner is resolved
    assert not new.meets({"x1", "x2"})
    assert new.meets({"x1", "ff"}) and new.meets({"x2", "ff"})


def test_quasihomogeneous_blowup_interior_order():
    # center with interior data of order 2: the difference function
    # acquires vanishing order 2 at the front face
    sp = product_space(2, {0: 1}, face_names=("lf", "rf"))
    sp, _ = blowup(sp, corner("lf", "rf"), 1, "ffx")
    new, beta = blowup(sp, diag_locus({1, 2}, 0, "ffx"), 2, "ffy")
    assert new.val("ffy", ("d", 0, frozenset({1, 2}))) == 2
    assert new.val("ffy", ("d", -1, frozenset({1, 2}))) == 1 + 2


def test_blowup_rejects_bad_centers():
    sp = quadrant()
    with pytest.raises(cs.BlowupError):
        blowup(sp, corner("nope"), 1, "ff")
    with pytest.raises(cs.BlowupError):
        blowup(sp, corner("x1", "x2"), 0, "ff")
    new, _ = blowup(sp, corner("x1", "x2"), 1, "ff")
    with pytest.raises(cs.BlowupError):
        blowup(new, corner("x1", "x2"), 1, "ff2")  # resolved corner


@pytest.mark.parametrize("order", [1.5, 2.0, True, 0])
def test_blowup_order_must_be_a_positive_int(order):
    # a float order would give the front face inexact valuations
    with pytest.raises(cs.BlowupError, match="positive integer"):
        blowup(quadrant(), corner("x1", "x2"), order, "ff")


def test_registered_center_order_deficit():
    sp = quadrant()
    sp = register(sp, "c", PSub(corner("x1", "x2"), order=1))
    with pytest.raises(cs.BlowupError):
        blowup(sp, "c", 2, "ff")
    new, _ = blowup(sp, "c", 1, "ff")
    assert "ff" in new.face_names


def test_lift_contained_loses_order():
    sp = product_space(2, {0: 1}, face_names=("lf", "rf"))
    sp, _ = blowup(sp, corner("lf", "rf"), 1, "ffx")
    center = PSub(diag_locus({1, 2}, 0, "ffx"), order=3)
    new, beta = blowup(sp, center.locus, 1, "ffy")
    lifted = lift(beta, center)
    assert lifted.order == 2
    assert "ffy" in lifted.locus.faces


def test_fully_resolved_submanifold_is_dropped():
    # blowing up to the full definedness order resolves a submanifold:
    # the registry drops it and lift refuses it; a higher order survives
    sp = product_space(2, {0: 1}, face_names=("lf", "rf"))
    sp, _ = blowup(sp, corner("lf", "rf"), 1, "ffx")
    loc = diag_locus({1, 2}, 0, "ffx")
    sp = register(register(sp, "d1", PSub(loc, order=1)),
                  "d3", PSub(loc, order=3))
    new, beta = blowup(sp, loc, 1, "ffy")
    reg = dict(new.registry)
    assert "d1" not in reg
    assert reg["d3"] == lift(beta, PSub(loc, order=3))
    assert reg["d3"].order == 2 and "ffy" in reg["d3"].locus.faces
    with pytest.raises(cs.BlowupError, match="fully resolved"):
        lift(beta, PSub(loc, order=1))


def test_lift_disjoint_is_relabeled():
    sp = quadrant()
    new, beta = blowup(sp, corner("x1", "x2"), 1, "ff")
    other = PSub(Locus(frozenset({"x1"})), order=cs.INF)
    assert lift(beta, other).locus.faces == frozenset({"x1"})


def test_compose_identity_and_associativity():
    sp = quadrant()
    s1, b1 = blowup(sp, corner("x1", "x2"), 1, "ff")
    s2, b2 = blowup(s1, corner("x1", "ff"), 1, "gg")
    ident = identity_bmap(sp)
    assert compose(b1, ident).matrix() == b1.matrix()
    total = compose(b2, b1)
    assert compose(compose(b2, b1), ident).matrix() == total.matrix()
    # the second corner re-blows the first axis: exponent accumulates
    assert total.exponent("gg", "x1") == 2
    assert total.exponent("gg", "x2") == 1
    assert total.exponent("ff", "x1") == 1 and total.exponent("ff", "x2") == 1


def test_is_b_fibration_row_criterion():
    sp = quadrant()
    s1, b1 = blowup(sp, corner("x1", "x2"), 1, "ff")
    assert not is_b_fibration(b1)       # ff maps onto the corner
    assert is_b_fibration(identity_bmap(sp))
    single = cs.bmap_from_entries(s1, product_space(1, {0: 1}),
                                  [("x1", "H_1", 1), ("ff", "H_1", 1)])
    assert is_b_fibration(single)


def test_rewrite_rule1_requires_certificate():
    sp = product_space(3, {0: 1, 1: 1, 2: 1})
    seq = BlowupSeq(sp, (
        CenterExpr("V", ("H_1", "H_2", "H_3"), Merge.trivial(), 1),
        CenterExpr("E1", ("H_2", "H_3"), Merge.trivial(), 1),
        CenterExpr("E2", ("H_1", "H_3"), Merge.trivial(), 1),
    ))
    # axes are disjoint after the corner blowup
    out = rewrite_step(seq, 1, 1)
    assert out.labels() == ("V", "E2", "E1")
    A = replay(seq)
    B = replay(out)
    assert isomorphic(A, B) is not None
    # corner vs axis are not disjoint
    with pytest.raises(cs.RewriteError):
        rewrite_step(seq, 1, 0)


def test_rewrite_rule2_nested():
    sp = product_space(3, {0: 1, 1: 1, 2: 1})
    seq = BlowupSeq(sp, (
        CenterExpr("V", ("H_1", "H_2", "H_3"), Merge.trivial(), 1),
        CenterExpr("E1", ("H_2", "H_3"), Merge.trivial(), 1),
    ))
    out = rewrite_step(seq, 2, 0)
    assert out.labels() == ("E1", "V")
    assert out.entries[1].faces == ("E1", "H_1")
    A = replay(seq)
    B = replay(out)
    bij = isomorphic(A, B)
    assert bij == {f: f for f in A.face_names}


def _stage_x_seq():
    from qhcalc import a_spaces as asp
    return asp.symmetric_triple_seq(asp.CANONICAL_TOWER, "x")


@pytest.mark.parametrize("past_end", [False, True])
@pytest.mark.parametrize("rule, span", [(1, 2), (2, 2), (3, 3)])
def test_rewrite_rejects_positions_outside_the_sequence(rule, span, past_end):
    # a position of -1 must not wrap round to the last entries
    seq = _stage_x_seq()
    p = len(seq.entries) - span + 1 if past_end else -1
    with pytest.raises(cs.RewriteError, match=f"needs {span} entries"):
        rewrite_step(seq, rule, p)


def test_bubble_to_rejects_targets_outside_the_sequence():
    seq = _stage_x_seq()
    for label, target in ((seq.entries[0].label, -1),
                          (seq.entries[-1].label, len(seq.entries))):
        with pytest.raises(cs.RewriteError, match="needs 2 entries"):
            bubble_to(seq, label, target)


def test_rewrite_preserves_space_across_script():
    # every intermediate of a mixed script replays isomorphically
    sp = product_space(3, {0: 1, 1: 1, 2: 1})
    entries = (
        CenterExpr("V", ("H_1", "H_2", "H_3"), Merge.trivial(), 1),
        CenterExpr("E1", ("H_2", "H_3"), Merge.trivial(), 1),
        CenterExpr("E2", ("H_1", "H_3"), Merge.trivial(), 1),
        CenterExpr("D", ("V",), Merge.diag({1, 2, 3}, 0), 2),
    )
    seq = BlowupSeq(sp, entries)
    A = replay(seq)
    s = rewrite_step(seq, 1, 1)      # swap the two axes
    s = rewrite_step(s, 2, 0)        # corner into the first axis
    for step in (s,):
        B = replay(step)
        assert isomorphic(A, B, incidence="within") is not None


def test_isomorphic_rejects_different_spaces():
    sp = quadrant()
    s1, _ = blowup(sp, corner("x1", "x2"), 1, "ff")
    assert isomorphic(sp, s1) is None
    sp2 = product_space(2, {0: 2}, face_names=("x1", "x2"))
    assert isomorphic(sp, sp2) is None
    assert isomorphic(sp, sp) == {"x1": "x1", "x2": "x2"}


def test_isomorphic_rejects_an_unknown_incidence():
    # x1 and x2 meet again in the first space only: both comparisons see
    # it, and a misspelt one must not skip the incidence check
    s1, _ = blowup(quadrant(), corner("x1", "x2"), 1, "ff")
    extra = dataclasses.replace(s1, strata=s1.strata | {0b11})
    assert extra.meets({"x1", "x2"}) and not s1.meets({"x1", "x2"})
    for incidence in ("exact", "within"):
        assert isomorphic(extra, s1, incidence=incidence) is None
    for incidence in ("witin", None):
        with pytest.raises(ValueError, match="incidence"):
            isomorphic(extra, s1, incidence=incidence)


def test_diag_tracking_through_double_space():
    sp = product_space(2, {0: 1, 1: 1, 2: 1}, face_names=("lf", "rf"))
    sp = register(sp, "diag", PSub(diag_locus({1, 2}, 2)))
    sp, _ = blowup(sp, corner("lf", "rf"), 1, "ffx")
    assert sp.psub_meets("diag") == frozenset({"ffx"})
    sp, _ = blowup(sp, diag_locus({1, 2}, 0, "ffx"), 1, "ffy")
    assert sp.psub_meets("diag") == frozenset({"ffy"})
    sp, _ = blowup(sp, diag_locus({1, 2}, 1, "ffy"), 1, "ffz")
    assert sp.psub_meets("diag") == frozenset({"ffz"})


def test_loci_on_unknown_faces_are_certified_empty():
    # a locus naming a face the space lacks is provably empty: the
    # certificates answer without a KeyError from the face masks
    sp = product_space(2, {0: 1, 1: 1}, face_names=("lf", "rf"))
    sp, _ = blowup(sp, corner("lf", "rf"), 1, "ffx")
    known = diag_locus({1, 2}, 0, "ffx")
    assert sp.locus_nonempty_certificate(known)
    for locus in (corner("nope"), diag_locus({1, 2}, 0, "nope"),
                  diag_locus({1, 2}, 0, "ffx", "nope"),
                  Locus(frozenset({"ffx", "nope"}), Merge.diag({1, 2}, 0),
                        pure=False)):
        assert sp.locus_nonempty_certificate(locus) is False
        assert sp.disjoint(locus, known) is True
        assert sp.disjoint(known, locus) is True


def test_export_dot_mentions_all_faces():
    sp = quadrant()
    s1, _ = blowup(sp, corner("x1", "x2"), 1, "ff")
    dot = cs.export_dot(s1)
    for name in s1.face_names:
        assert f'"{name}"' in dot
    assert "style=dashed" in dot


def seq_to_json(seq: BlowupSeq) -> list:
    """Blowup script serialization: one entry per step."""
    out = []
    for e in seq.entries:
        interior = [{"factors": sorted(b), "level": l}
                    for l, blks in e.merge.blocks
                    for b in sorted(blks, key=sorted)]
        out.append({"label": e.label,
                    "center": {"faces": list(e.faces), "interior": interior},
                    "order": e.order})
    return out


def seq_from_json(base, data) -> BlowupSeq:
    entries = []
    for item in data:
        c = item["center"]
        by_level = {}
        for blk in c.get("interior", []):
            by_level.setdefault(int(blk["level"]), []).append(
                frozenset(int(i) for i in blk["factors"]))
        merge = Merge(tuple((l, cs._partition(bs))
                            for l, bs in by_level.items()))
        entries.append(CenterExpr(item["label"], tuple(c["faces"]), merge,
                                  int(item.get("order", 1))))
    return BlowupSeq(base, tuple(entries))


def test_blowup_script_roundtrip_json():
    sp = product_space(2, {0: 1}, face_names=("lf", "rf"))
    seq = BlowupSeq(sp, (
        CenterExpr("ffx", ("lf", "rf"), Merge.trivial(), 1),
        CenterExpr("ffy", ("ffx",), Merge.diag({1, 2}, 0), 2),
    ))
    data = seq_to_json(seq)
    back = seq_from_json(sp, data)
    assert back.entries == seq.entries
    A = replay(seq)
    B = replay(back)
    assert isomorphic(A, B) is not None


def test_blowup_of_whole_hypersurface_is_trivial():
    sp = quadrant()
    new, beta = blowup(sp, corner("x1"), 1, "ff")
    assert isomorphic(sp, new) is not None
    assert beta.matrix() == identity_bmap(sp).matrix()


# The hand-derived commutation path of the depth-2 triple space and the
# index-1 face tables stored with it.  They pin the level loops of
# ``a_spaces.commuted_triple_seq`` and ``a_spaces.facemap_rule`` at
# depth 2.  The path bubbles entries to targets by disjoint swaps, then
# applies ``rewrite_step`` rules at positions; a stage keeps the bubbles
# of its own levels and its first rewrites.
HAND_BUBBLES = (
    ("E_{1,y}", 6), ("E_{1,z}", 16), ("G_{1,z}", 13), ("E_{1,z}", 14),
    ("V_z", 7), ("F_{1,z}", 8), ("G_{1,z}", 9), ("E_{1,z}", 10),
    ("V_y", 2), ("G_{1,y}", 3), ("E_{1,y}", 4), ("V_z", 5), ("F_{1,z}", 6),
    ("G_{1,z}", 7), ("E_{1,z}", 8))
HAND_REWRITES = (
    (2, 0),     # corner and first axis
    (2, 2),     # triple diagonal into the pair face
    (1, 3),
    (3, 1),     # exchange axis corner / pair / index-1
    (2, 5),     # same pattern one level deeper
    (1, 6), (1, 7), (3, 4), (1, 6), (1, 5), (1, 3), (1, 4), (3, 2))
STAGE_REWRITES = {"x": 1, "y": 4, "z": 13}


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


def hand_path(t, stage, upto=None):
    """The hand path's sequence at a stage after its first `upto` steps."""
    from qhcalc import a_spaces as asp
    level = asp.stage_level(stage)
    steps = [(lbl, tgt) for lbl, tgt in HAND_BUBBLES
             if asp.parse_name(lbl)[2] <= level]
    s = asp.symmetric_triple_seq(t, stage)
    for a, b in (steps + list(HAND_REWRITES[:STAGE_REWRITES[stage]]))[:upto]:
        s = bubble_to(s, a, b) if isinstance(a, str) else rewrite_step(s, a, b)
    return s


def relabel_table(table: dict, i: int) -> dict:
    """Index-i table from the index-1 table by factor transposition.

    The left and right boundary roles follow the retained factors in
    increasing order; the transposition with 3 reverses that order, so
    the left and right classes swap there.
    """
    from qhcalc import a_spaces as asp
    out = {h: tuple(sorted(asp._relabel_name(g, asp._SIGMA[i])
                           for g in faces))
           for h, faces in table.items()}
    if i == 3:
        out["lf"], out["rf"] = out["rf"], out["lf"]
    return out


def reference_table(stage: str, i: int) -> dict:
    base = {"x": REFERENCE_FACEMAP_X1, "y": REFERENCE_FACEMAP_Y1,
            "z": REFERENCE_FACEMAP_Z1}[stage]
    return relabel_table(base, i) if i != 1 else dict(base)


@cs.replay_scope()
def test_rewrite_checkpoints_isomorphic():
    # sampled intermediates of the hand path replay to spaces isomorphic
    # with the original symmetric construction: after the first level-2
    # compaction, after every bubble and after each triple exchange
    from qhcalc.a_spaces import Tower
    t = Tower(2, (1, 1, 1), 1, (1, 1))
    A = replay(hand_path(t, "z", 0))
    for n in (4, 15, 19, 23, 28):
        B = replay(hand_path(t, "z", n))
        assert isomorphic(A, B, incidence="within") is not None
    assert len(hand_path(t, "z").entries) == 21


def count_engine_calls(monkeypatch) -> dict:
    """Count the calls of the blowup, the certificates, the rewrite step
    and the commuted-path derivation from now on."""
    from qhcalc import a_spaces as asp
    counts = dict.fromkeys(("blowup", "_fm_feasible", "disjoint",
                            "_closure", "separated_by", "rewrite_step",
                            "commuted_triple_seq"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in ((cs, "blowup"), (cs, "_fm_feasible"),
                        (cs.Space, "disjoint"), (cs.Space, "_closure"),
                        (cs.Space, "separated_by"), (cs, "rewrite_step"),
                        (asp, "commuted_triple_seq")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    # a_spaces calls the rewrite step under its own imported name
    monkeypatch.setattr(asp, "rewrite_step", cs.rewrite_step)
    return counts


@pytest.mark.parametrize("tower, tables, bounds", [
    ((2, (1, 1, 1), 1, (1, 1)), 9, (168, 1212, 2912, 8533, 8205, 64)),
    ((3, (1, 1, 1, 1), 1, (1, 1, 1)), 12,
     (365, 2421, 7512, 19881, 25371, 207)),
    ((4, (1, 2, 1, 3, 1), 0, (1, 0, 2, 1)), 15,
     (692, 4333, 16213, 41179, 64848, 527)),
    ((5, (1,) * 6, 0, (1, 0, 1, 0, 1)), 18,
     (1196, 7168, 31187, 77962, 145142, 1148))],
    ids=["depth-2", "depth-3", "depth-4", "depth-5"])
def test_cold_facemap_verify_work_counts(tower, tables, bounds, monkeypatch):
    # work counts do not depend on the machine: a certificate that gets
    # dearer shows up here even where wall times are noise.  The bounds
    # are the counts of the cheapest-first certificate order, with reach
    # screening of the faces a blowup can separate from a tracked
    # diagonal (the only `separated_by` caller) and one rate system per
    # face set, on the commuted path of the level loops, derived once
    # per stage and replayed for each of the three projections, each
    # prefix replayed once per verify.  The weight checks add no engine
    # work: they read the top-stage spaces the table loop built.  Every
    # verify is cold: the engine keeps no state between calls.
    from qhcalc import a_spaces as asp
    counts = count_engine_calls(monkeypatch)
    t = asp.Tower(*tower)
    assert asp.verify_facemaps(t) == {"tables": tables, "mismatches": []}
    blowups, fm, disjoint, closure, separated, rewrites = bounds
    assert counts["blowup"] == blowups      # every replay ran cold
    assert counts["commuted_triple_seq"] == t.k + 1
    assert counts["rewrite_step"] <= rewrites
    assert counts["_fm_feasible"] <= fm
    assert counts["disjoint"] <= disjoint
    assert counts["_closure"] <= closure    # memo lookups, hits included
    assert counts["separated_by"] <= separated


def _unscreened(monkeypatch):
    """Make `_reach` the full face mask, so no certificate is screened;
    returns the real bound."""
    reach = cs.Space._reach
    monkeypatch.setattr(cs.Space, "_reach",
                        lambda self, mask: (1 << len(self.faces)) - 1)
    return reach


def test_engine_work_is_call_local(monkeypatch):
    # two verifies in one process each do the depth-2 counts above:
    # neither reads what the other replayed
    from qhcalc import a_spaces as asp
    counts = count_engine_calls(monkeypatch)
    cold = dict(zip(counts, (168, 1212, 2912, 8533, 8205, 64, 3)))
    for _ in range(2):
        assert asp.verify_facemaps(asp.CANONICAL_TOWER)["mismatches"] == []
        assert counts == cold
        counts.update(dict.fromkeys(counts, 0))


def test_replay_scope_shares_prefixes_until_the_outermost_exits(
        monkeypatch):
    # a replay outside any scope runs each step once and keeps nothing;
    # inside a scope, replays of the same prefixes (nested scopes too)
    # run no blowup
    from qhcalc import a_spaces as asp
    counts = count_engine_calls(monkeypatch)
    seq = asp.symmetric_triple_seq(asp.CANONICAL_TOWER)
    for _ in range(2):
        counts["blowup"] = 0
        replay(seq)
        assert counts["blowup"] == len(seq.entries) == 21
    counts["blowup"] = 0
    with cs.replay_scope():
        A = replay(seq)
        with cs.replay_scope():
            assert replay(seq, 5) is cs._replays[seq.base,
                                                 seq.entries[:5]]
        assert replay(seq) is A
    assert counts["blowup"] == 21 and cs._replays is None


def test_replay_memo_keeps_one_space_per_prefix():
    # the memo stores spaces, not blowdown maps, and a prefix's history
    # entries are the objects of the prefix before it
    from qhcalc import a_spaces as asp
    seq = asp.symmetric_triple_seq(asp.CANONICAL_TOWER)
    with cs.replay_scope():
        replay(seq)
        assert len(cs._replays) == 21
        assert all(type(S) is cs.Space for S in cs._replays.values())
        spaces = [cs._replays[seq.base, seq.entries[:n]]
                  for n in range(1, 22)]
    for prev, new in zip(spaces, spaces[1:]):
        assert len(new._hist) == len(prev._hist) + 1
        assert all(a is b for a, b in zip(prev._hist, new._hist))


def test_front_faces_are_the_step_records():
    # a front face carries its step's rank and `_hist` entry; the meet
    # sets are one int per key, and every prefix of a shape reads the
    # same key map
    from qhcalc import a_spaces as asp
    ranks = set()
    for seq in (asp.symmetric_triple_seq(asp.CANONICAL_TOWER),
                asp.commuted_triple_seq(asp.CANONICAL_TOWER)):
        keys = cs._diag_keys(seq.base.n_factors, seq.base.levels)
        for S in _replayed_spaces(seq):
            fronts = [(k, f) for k, f in enumerate(S.faces) if f.is_front]
            assert S.history == tuple(f for _, f in fronts)
            assert [f.step for f in S.history] == list(range(len(fronts)))
            for k, f in fronts:
                assert f.rank == cs.center_rank(S, f.center)
                assert f.hist == (1 << k, S._mask(f.center.faces),
                                  f.center.merge)
                ranks.add(f.rank)
            assert cs._diag_keys(S.n_factors, S.levels) is keys
            assert len(S.diag_meets) == len(keys)
            assert all(type(m) is int for m in S.diag_meets)
    assert ranks > {0}


def test_reach_bounds_every_closure(monkeypatch):
    # every closure the unscreened engine computes in a cold verify lies
    # inside the reach of the locus's faces
    from qhcalc import a_spaces as asp
    reach, closure = _unscreened(monkeypatch), cs.Space._closure
    checked = []

    def bounded(self, locus):
        cl = closure(self, locus)
        checked.append(cl & ~reach(self, self._mask(locus.faces)) == 0)
        return cl

    monkeypatch.setattr(cs.Space, "_closure", bounded)
    assert asp.verify_facemaps(asp.CANONICAL_TOWER)["mismatches"] == []
    assert len(checked) > 10000 and all(checked)


@cs.replay_scope()
def _replayed_spaces(seq):
    return [replay(seq, n) for n in range(len(seq.entries) + 1)]


def _symmetric_spaces():
    from qhcalc import a_spaces as asp
    return _replayed_spaces(asp.symmetric_triple_seq(asp.CANONICAL_TOWER))


def _depth4_sequences():
    # the top-stage symmetric and commuted sequences of the depth-4 count
    # tower of `test_cold_facemap_verify_work_counts`
    from qhcalc import a_spaces as asp
    t = asp.Tower(4, (1, 2, 1, 3, 1), 0, (1, 0, 2, 1))
    stage = asp.stage_name(t.k)
    return (asp.symmetric_triple_seq(t, stage),
            asp.commuted_triple_seq(t, stage))


def test_screened_diag_meets_match_plain_loop(monkeypatch):
    runs = [_symmetric_spaces()] + [_replayed_spaces(seq)
                                    for seq in _depth4_sequences()]
    _unscreened(monkeypatch)

    def named_meets(space):
        keys = cs._diag_keys(space.n_factors, space.levels)
        return {key: frozenset(space._names(m))
                for key, m in zip(keys, space.diag_meets)}

    @cs._memo_scope
    def plain_diag_meets(space, ff):
        out = {}
        for key, ms in named_meets(space).items():
            dloc = diag_locus(*key)
            met = {h for h in ms if not space.separated_by(
                dloc, Locus(frozenset({h})), ff)}
            if ff.center.faces <= ms and not space.disjoint(dloc, ff.center):
                met.add(ff.name)
            out[key] = frozenset(met)
        return out

    for spaces in runs:
        dropped = 0
        for prev, new in zip(spaces, spaces[1:]):
            want = plain_diag_meets(prev, new.history[-1])
            assert named_meets(new) == want
            old = named_meets(prev)
            dropped += sum(len(old[key] - ms) for key, ms in want.items())
        assert dropped > 0      # some step separates a diagonal from a face


def enumerated_strata(space, center):
    """Strata after blowing up the center, by enumerating every subset of
    every stratum and filtering: the reference for `_new_strata`."""
    cmask = space._mask(center.faces)
    ff = 1 << len(space.faces)
    all_old = set()                # every subset of an old stratum
    for m in space.strata:
        sub = m
        while True:
            all_old.add(sub)
            if not sub:
                break
            sub = (sub - 1) & m
    if center.is_corner:
        new = {m for m in space.strata if m & cmask != cmask}
        new.update(b | ff for b in all_old
                   if b | cmask in all_old and b & cmask != cmask)
    else:
        new = set(space.strata)
        for tot in {b | cmask for b in all_old} & all_old:
            if not space.disjoint(center,
                                  Locus(frozenset(space._names(tot)))):
                new.add(tot | ff)
    return frozenset(s for s in new
                     if not any(s != t and s & t == s for t in new))


def test_new_strata_follow_the_stated_rules():
    # star subdivision for corner centers and the face sets holding a
    # diagonal center give the strata of enumerating every subset, at
    # every step of the depth-2 and depth-4 symmetric and commuted paths
    from qhcalc import a_spaces as asp
    seqs = (asp.symmetric_triple_seq(asp.CANONICAL_TOWER),
            asp.commuted_triple_seq(asp.CANONICAL_TOWER),
            *_depth4_sequences())
    kinds = {True: 0, False: 0}
    for seq in seqs:
        spaces = _replayed_spaces(seq)
        for prev, new, e in zip(spaces, spaces[1:], seq.entries):
            center = e.locus()
            assert new.strata == cs._memo_scope(enumerated_strata)(
                prev, center), e.label
            kinds[center.is_corner] += 1
    assert kinds == {True: 22, False: 120}


def _rescan_separates(space, t1, t2):
    """The history rescan: does some earlier blowup of the space separate
    the two loci?  `Space.disjoint` reads only the tracked diagonal meet
    sets, where `blowup` records each separation it makes."""
    return any(space.separated_by(t1, t2, st) for st in space.history)


def test_no_engine_query_needs_a_history_rescan(monkeypatch):
    # every disjointness the engine asks for in cold verifies at depths
    # 0-3 and in the diagonal meets of a double space: where `disjoint`
    # answers False, no earlier blowup separates the pair either.  A
    # derivation that needed the rescan would raise `RewriteError`; this
    # names the query instead
    from qhcalc import a_spaces as asp
    disjoint, answers, missed = cs.Space.disjoint, [], []

    @cs._memo_scope
    def guarded(space, t1, t2):
        out = disjoint(space, t1, t2)
        answers.append(out)
        if not out and _rescan_separates(space, t1, t2):
            missed.append((space.history[-1].name, t1, t2))
        return out

    monkeypatch.setattr(cs.Space, "disjoint", guarded)
    for tower in ((0, (1,), 1, ()), (1, (1, 2), 1, (1,)),
                  (2, (1, 1, 1), 1, (1, 1)),
                  (3, (1, 1, 1, 1), 1, (1, 1, 1))):
        assert asp.verify_facemaps(asp.Tower(*tower))["mismatches"] == []
    d = asp.double_space(asp.CANONICAL_TOWER)
    assert d.space.psub_meets("diag") == frozenset({"ff_z"})
    assert missed == []
    assert len(answers) > 10000 and 0 < sum(answers) < len(answers)


def test_history_rescan_reference_can_fire():
    # the guard's reference is live: on random one-face diagonals against
    # single faces of the symmetric triple spaces, an earlier blowup
    # separates some pairs that `disjoint` leaves open
    import random
    rng = random.Random(11)
    separated = 0
    for space in _symmetric_spaces()[5::3]:
        names = space.face_names
        for _ in range(200):
            t1 = Locus(frozenset(rng.sample(names, 1)),
                       Merge.diag(rng.sample((1, 2, 3), rng.randint(2, 3)),
                                  rng.randint(-1, 1)),
                       rng.random() < 0.5)
            t2 = Locus(frozenset(rng.sample(names, 1)))
            separated += (not space.disjoint(t1, t2)
                          and _rescan_separates(space, t1, t2))
    assert separated >= 10

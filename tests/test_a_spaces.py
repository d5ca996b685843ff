"""Towers, double and triple spaces, face tables, reductions."""

import dataclasses
import itertools
import random

import pytest

from qhcalc import a_spaces as asp
from qhcalc import corner_spaces as cs
from qhcalc.a_spaces import (CoordChangeSpec, FormalASeries, Tower,
                             a_function_member, check_coord_change,
                             double_face_names, double_projections,
                             double_space, exponent_vector,
                             normal_bundle_rank, reduce, triple_space,
                             verify_facemaps)
from test_corner_spaces import hand_path, reference_table, relabel_table

T = Tower(2, (1, 1, 1), 1, (1, 1))


def constructions_isomorphic(trip):
    """Face bijection of the symmetric space onto the build's commuted
    replay, whose incidence is certified-conservative."""
    return cs.isomorphic(trip.space, trip.commuted, incidence="within")


def test_tower_validation():
    with pytest.raises(ValueError):
        Tower(2, (1, 1), 1, (1, 1))
    with pytest.raises(ValueError):
        Tower(1, (1, 0), 1, (1,))
    with pytest.raises(ValueError):
        Tower(1, (1, 1), -1, (1,))
    assert T.dim == 4
    rt = Tower.from_json(T.to_json())
    assert rt == T


def test_exponent_vectors_all_levels():
    cases = {0: ((0, 1, 1), (1, 0, 1)),
             1: ((0, 1, 1, 1), (1, 0, 1, 1)),
             2: ((0, 1, 1, 1, 1), (1, 0, 1, 1, 1))}
    for k, (el, er) in cases.items():
        t = reduce(T, k)
        pl, pr = double_projections(t)
        faces = double_face_names(k)
        assert exponent_vector(pl, faces) == el
        assert exponent_vector(pr, faces) == er
        assert cs.is_b_fibration(pl) and cs.is_b_fibration(pr)
        # exactly one zero, at rf resp. lf
        assert exponent_vector(pl, faces).count(0) == 1
        assert exponent_vector(pr, faces).count(0) == 1


def test_double_space_face_counts_and_diagonal():
    for k, t in ((0, reduce(T, 0)), (1, reduce(T, 1)), (2, T)):
        d = double_space(t)
        assert len(d.space.faces) == k + 3
        assert d.space.psub_meets("diag") == frozenset({d.faces[-1]})


def test_double_space_general_orders():
    t = Tower(2, (1, 2, 3), 2, (1, 2))
    d = double_space(t)
    # interior orders at the front faces follow the cumulative pattern
    sp = d.space
    pair = frozenset({1, 2})
    assert sp.val("ff_z", ("d", -1, pair)) == 1 + 2 + 3
    assert sp.val("ff_z", ("d", 0, pair)) == 2 + 3
    assert sp.val("ff_z", ("d", 1, pair)) == 3
    assert sp.val("ff_zy", ("d", 0, pair)) == 2


def test_triple_space_shape():
    trip = triple_space(T)
    assert len(trip.space.faces) == 24
    assert all(cs.is_b_fibration(p) for p in trip.projections)
    for p in trip.projections:
        # face partition: every bhs in exactly one class, rows have <= 1 one
        seen = []
        for g in p.domain_faces:
            img = p.face_map(g)
            assert len(img) <= 1
            seen.append(g)
        assert sorted(seen) == sorted(trip.space.face_names)


def test_triple_space_requires_depth_2():
    with pytest.raises(ValueError):
        triple_space(reduce(T, 1), "z")


def test_facemap_tables_match_reference():
    rep = verify_facemaps(T)
    assert rep["tables"] == 9
    assert rep["mismatches"] == []


def test_triple_face_names_follow_the_symmetric_replay():
    # the engine-free face order that the composition plan reads
    for t, stage in [(T, s) for s in "xyz"] + [
            (Tower(3, (1, 2, 1, 3), 0, (1, 0, 2)), "u")]:
        space = cs.replay(asp.symmetric_triple_seq(t, stage))
        assert space.face_names == asp.triple_face_names(
            asp.stage_level(stage))


def test_facemap_rule_equals_stored_tables():
    for stage, i in itertools.product("xyz", (1, 2, 3)):
        assert asp.facemap_rule(stage, i) == reference_table(stage, i)


def test_mutated_facemap_rule_reports_mismatches(monkeypatch):
    # the rule is a real oracle: sending the non-index faces of the
    # family new at level c >= 1 to ff_c instead of ff_{c-1} is caught,
    # at depth 3 at stage u as well
    rule = asp.facemap_rule

    def mutated(stage, i):
        out = {h: list(fs) for h, fs in rule(stage, i).items()}
        ff = double_face_names(asp.stage_level(stage))[2:]
        for c in range(1, len(ff)):
            moved = [g for g in out[ff[c - 1]]
                     if (asp.parse_name(g) or (0,))[0] == c]
            out[ff[c - 1]] = [g for g in out[ff[c - 1]] if g not in moved]
            out[ff[c]] += moved
        return {h: tuple(sorted(fs)) for h, fs in out.items()}

    monkeypatch.setattr(asp, "facemap_rule", mutated)
    for t, stages in ((T, "yz"), (Tower(3, (1, 2, 1, 3), 0, (1, 0, 2)),
                                  "yzu")):
        rep = verify_facemaps(t)
        assert rep["tables"] == 3 * (t.k + 1)
        assert {(m["stage"], m["projection"])
                for m in rep["mismatches"]} == {
            (stage, i) for stage in stages for i in (1, 2, 3)}


# the 243 depth-2 towers (1, a1, a2) with b, f1, f2 in 0..2
_SWEEP = list(itertools.product((1, 2, 3), (1, 2, 3), (0, 1, 2), (0, 1, 2),
                                (0, 1, 2)))


@pytest.mark.parametrize("t", [T, Tower(2, (1, 3, 1), 1, (1, 1))] + [
    Tower(2, (1, a1, a2), b, (f1, f2))
    for a1, a2, b, f1, f2 in random.Random(14).sample(_SWEEP, 6)] + [
    Tower(1, (1, 3), 1, (1,))])
@cs.replay_scope()
def test_derived_path_equals_hand_path(t):
    for stage in map(asp.stage_name, range(t.k + 1)):
        assert asp.commuted_triple_seq(t, stage).entries == \
            hand_path(t, stage).entries, stage


@pytest.mark.parametrize("t", [Tower(3, (1, 1, 1, 1), 1, (1, 1, 1)),
                               Tower(3, (1, 2, 1, 3), 0, (1, 0, 2))],
                         ids=["unit", "orders"])
@cs.replay_scope()
def test_depth_three_derived_path(t):
    com = asp.commuted_triple_seq(t, "u")
    assert com.labels()[:4] == ("E_{1,x}", "E_{1,y}", "E_{1,z}", "E_{1,u}")
    assert len(com.entries) == 34
    trip = triple_space(t, "u")
    assert constructions_isomorphic(trip) is not None
    for i, p in enumerate(trip.projections, 1):
        assert cs.is_b_fibration(p)
        assert asp.face_table(p) == asp.facemap_rule("u", i)


def test_facemap_tables_independent_of_orders():
    rep = verify_facemaps(Tower(2, (1, 3, 2), 0, (2, 1)))
    assert rep["mismatches"] == []


def test_commuted_construction_isomorphic():
    bij = constructions_isomorphic(triple_space(T))
    assert bij is not None
    assert all(k == v for k, v in bij.items())


def test_isomorphism_holds_for_every_tangency_order():
    # a seeded sample of the 243 depth-2 towers with orders (1, a1, a2)
    # and b, f1, f2 in 0..2, plus stage y at depth 1
    for a1, a2, b, f1, f2 in random.Random(6).sample(_SWEEP, 4) + [
            (3, 1, 1, 1, 1)]:
        t = Tower(2, (1, a1, a2), b, (f1, f2))
        assert constructions_isomorphic(triple_space(t)) is not None, t
    assert constructions_isomorphic(
        triple_space(Tower(1, (1, 3), 1, (1,)), "y")) is not None


@cs.replay_scope()
def test_isomorphism_rejects_every_order_mutation():
    # negative control: changing one blowup order of the commuted (1,3,1)
    # sequence changes some face's valuations or cumulative weight
    t = Tower(2, (1, 3, 1), 1, (1, 1))
    sym = cs.replay(asp.symmetric_triple_seq(t))
    com = asp.commuted_triple_seq(t)
    mutations = 0
    for k, e in enumerate(com.entries):
        for a in {1, 2, 3, 5} - {e.order}:
            entries = list(com.entries)
            entries[k] = dataclasses.replace(e, order=a)
            mutations += 1
            try:
                Y = cs.replay(cs.BlowupSeq(com.base, tuple(entries)))
            except (ValueError, cs.EngineUnsupported):
                continue
            assert cs.isomorphic(sym, Y, incidence="within") is None, \
                (e.label, a)
    assert mutations == 63


def test_family_names_parse_back():
    for c, i, l in itertools.product(range(7), (1, 2, 3), range(7)):
        assert asp.parse_name(asp.family_name(c, i, l)) == (c, i, l)
    for l in range(7):
        stage = asp.stage_name(l)
        assert asp.parse_name(f"V_{stage}") == (None, None, l)
        assert asp.stage_level(stage) == l
    assert [asp.stage_name(l) for l in range(6)] == [
        "x", "y", "z", "u", "u4", "u5"]
    assert asp.family_name(0, 1, 2) == "E_{1,z}"
    assert asp.family_name(2, 3, 2) == "F_{3,z}"
    assert asp.family_name(3, 2, 3) == "D_{2,u}"
    assert asp.family_name(4, 1, 5) == "D4_{1,u5}"
    for name in ("H_1", "ff_zx", "E_{4,x}", "E_{1,w}", "E_{1,x}!", "V_w",
                 "x", "V_u3", "V_u04", "V_x4", "V_u}", "E4_{1,u4}",
                 "D3_{1,u}", "D_{1,u3}", "E_{1,x"):
        assert asp.parse_name(name) is None, name
    for name in ("V_y", "w", "u3", "E_{1,x}"):
        with pytest.raises(ValueError, match="no triple space stage"):
            asp.stage_level(name)


def test_projection_tables_partition():
    for i in (1, 2, 3):
        tbl = asp.facemap_rule("z", i)
        all_faces = [g for fs in tbl.values() for g in fs]
        assert len(all_faces) == 24 and len(set(all_faces)) == 24


def test_reduce():
    assert reduce(T, 2) == T
    r1 = reduce(T, 1)
    assert (r1.k, r1.orders, r1.b, r1.f) == (1, (1, 1), 1, (2,))
    r0 = reduce(T, 0)
    assert (r0.k, r0.orders, r0.b, r0.f) == (0, (1,), 3, ())
    # functorial
    assert reduce(reduce(T, 2), 1) == reduce(T, 1)
    assert reduce(reduce(T, 1), 0) == reduce(T, 0)


def test_normal_bundle_rank():
    assert normal_bundle_rank(T, 2) == 3
    assert normal_bundle_rank(T, 0) == 1
    t0 = Tower(2, (1, 1, 1), 0, (0, 0))
    assert normal_bundle_rank(t0, 2) == 1


def test_check_coord_change():
    t0 = Tower(0, (2,), 1, ())
    # x' = c x + O(x^2): no cross terms, remainder power 2
    assert check_coord_change(t0, CoordChangeSpec(((-1, (), 2),)))
    assert not check_coord_change(t0, CoordChangeSpec(((-1, (), 1),)))

    t1 = Tower(1, (1, 1), 1, (1,))
    # x' in x C_phi + x^2 C^infty
    spec = CoordChangeSpec(((-1, ((0, 1),), 2),))
    assert check_coord_change(t1, spec)

    # depth 2: level-0 target depending on level 1 at power 0 is rejected
    spec_bad = CoordChangeSpec(((0, ((1, 0),), 2),))
    assert not check_coord_change(T, spec_bad)
    spec_ok = CoordChangeSpec(((0, ((1, 1),), 2),))
    assert check_coord_change(T, spec_ok)


def test_a_function_member():
    assert a_function_member(T, FormalASeries(((1, 0),)))
    assert not a_function_member(T, FormalASeries(((0, 2),)))
    assert a_function_member(T, FormalASeries(()))
    assert a_function_member(T, FormalASeries(((0, -1),)))
    assert a_function_member(T, FormalASeries(((3, 2),)))
    t = Tower(2, (1, 2, 3), 1, (1, 1))
    assert not a_function_member(t, FormalASeries(((5, 2),)))
    assert a_function_member(t, FormalASeries(((6, 2),)))


def _blowdowns(space, entries):
    """The space after blowing up the entries in turn, and each step's
    blowdown map."""
    maps = []
    for e in entries:
        space, beta = cs.blowup(space, e.locus(), e.order, e.label)
        maps.append(beta)
    return space, maps


def composed_projection(t, stage, i):
    """Projection i as the composite of the blowdowns past the index-i
    prefix (the single factor times the double space) with the prefix's
    product projection onto the double space."""
    level = asp.stage_level(stage)
    seq = asp.relabel_seq(asp.commuted_triple_seq(t, stage), i)
    _, maps = _blowdowns(seq.base, seq.entries)
    chain = maps[-1]
    for beta in reversed(maps[level + 1:-1]):
        chain = cs.compose(chain, beta)
    left, right = sorted({1, 2, 3} - {i})
    entries = [(f"H_{left}", "lf", 1), (f"H_{right}", "rf", 1)]
    for l, ff in enumerate(double_face_names(level)[2:]):
        entries.append((asp.family_name(0, i, l), ff, 1))
    dbl = double_space(reduce(t, level)).space
    return cs.compose(chain, cs.bmap_from_entries(chain.codomain, dbl,
                                                  entries))


@pytest.mark.parametrize("t", [
    Tower(0, (1,), 1, ()), Tower(1, (1, 2), 0, (1,)),
    Tower(2, (1, 3, 1), 1, (1, 1)), Tower(3, (1, 1, 2, 1), 1, (1, 0, 1))],
    ids=["depth-0", "depth-1", "depth-2", "depth-3"])
@cs.replay_scope()
def test_projection_rows_equal_composed_blowdowns(t):
    # each projection reads a front face's row as the sum of its center
    # faces' rows; composing every blowdown map gives the same rows
    for stage in map(asp.stage_name, range(t.k + 1)):
        trip = triple_space(t, stage)
        for i in (1, 2, 3):
            want = composed_projection(t, stage, i)
            got = trip.projections[i - 1]
            assert got.rows == want.rows, (stage, i)
            assert got.domain is trip.space and got.codomain.face_names == \
                want.codomain.face_names


def test_projection_equals_blowdown_composition():
    # the stored projection agrees with explicitly composing the three
    # blowdown maps with the factor projection
    t = T
    seq = asp._double_seq(t)
    space, maps = _blowdowns(seq.base, seq.entries)
    total = maps[-1]
    for beta in reversed(maps[:-1]):
        total = cs.compose(total, beta)
    factor = asp.single_factor_space(t)
    base_proj = cs.bmap_from_entries(
        seq.base, factor, [("lf", "bf", 1)])
    full = cs.compose(total, base_proj)
    d = asp.double_space(t)
    for g in space.face_names:
        assert full.exponent(g, "bf") == d.proj_l.exponent(g, "bf")


def test_deep_axis_centers_pairwise_disjoint_at_blowup_time():
    # the three deepest side centers are pairwise disjoint once the
    # earlier stages are blown up, certified by the engine
    seq = asp.symmetric_triple_seq(T)
    idx = seq.index_of("E_{1,z}")
    space = cs.replay(seq, idx)
    centers = [seq.entries[seq.index_of(f"E_{{{i},z}}")].locus()
               for i in (1, 2, 3)]
    for i in range(3):
        for j in range(i + 1, 3):
            assert space.disjoint(centers[i], centers[j])


def test_projection2_table_is_transposed_projection1():
    trip = triple_space(T)
    t1 = asp.face_table(trip.projections[0])
    t2 = asp.face_table(trip.projections[1])
    swapped = relabel_table(t1, 2)
    swapped["interior"] = tuple(sorted(
        asp._relabel_name(g, asp._SIGMA[2]) for g in t1["interior"]))
    assert {k: tuple(v) for k, v in t2.items()} == \
        {k: tuple(v) for k, v in swapped.items()}


def test_double_space_depth_three():
    t = Tower(3, (1, 1, 2, 1), 1, (1, 1, 1))
    d = double_space(t)
    assert len(d.space.faces) == 6
    pl, pr = d.proj_l, d.proj_r
    assert exponent_vector(pl, d.faces) == (0, 1, 1, 1, 1, 1)
    assert exponent_vector(pr, d.faces) == (1, 0, 1, 1, 1, 1)
    assert d.space.psub_meets("diag") == frozenset({d.faces[-1]})
    pair = frozenset({1, 2})
    assert d.space.val(d.faces[-1], ("d", -1, pair)) == 1 + 1 + 2 + 1


def weight_rule_one_off(monkeypatch, vector, face):
    """Make ``densities.triple_weights`` one off at one face of W_a0 or
    W_a, as a mutation the verifier must name."""
    from qhcalc import densities as dn
    from qhcalc.index_algebra import WeightVector
    rule = dn.triple_weights

    def mutated(t):
        tw = rule(t)
        return dataclasses.replace(tw, **{
            vector: getattr(tw, vector) + WeightVector({face: 1})})

    monkeypatch.setattr(dn, "triple_weights", mutated)


def _verify_one_face_off(t, vector, face, monkeypatch):
    weight_rule_one_off(monkeypatch, vector, face)
    return verify_facemaps(t)


def test_depth_three_verifies_every_stage(monkeypatch):
    # the level letters name every depth; the engine builds every stage
    # up to the tower depth and refuses the one beyond it.  The weights
    # are compared with the rule there too: one face off is the only
    # mismatch (gamma = 2, 8, 11; F_{3,u} gets gamma_3 + gamma_1)
    t = Tower(3, (1, 1, 2, 1), 1, (1, 0, 1))
    assert double_face_names(3) == ("rf", "lf", "ff_ux", "ff_uy", "ff_uz",
                                    "ff_u")
    assert _verify_one_face_off(t, "W_a0", "F_{3,u}", monkeypatch) == {
        "tables": 12, "mismatches": [{"vector": "W_a0", "face": "F_{3,u}",
                                      "got": "13/1", "want": "14/1"}]}
    with pytest.raises(ValueError, match="stage u4 needs tower depth 4"):
        triple_space(t, "u4")


def test_depth_four_verifies_every_stage(monkeypatch):
    # gamma = 2, 4, 10, 14; in W_a, D_{1,u4} gets -gamma_2.  The top-stage
    # build the verify made is isomorphic to its commuted replay
    t = Tower(4, (1, 2, 1, 3, 1), 0, (1, 0, 2, 1))
    assert double_face_names(4)[2:] == ("ff_u4x", "ff_u4y", "ff_u4z",
                                        "ff_u4u", "ff_u4")
    builds = []

    def kept(*args):
        builds.append(triple_space(*args))
        return builds[-1]

    monkeypatch.setattr(asp, "triple_space", kept)
    assert _verify_one_face_off(t, "W_a", "D_{1,u4}", monkeypatch) == {
        "tables": 15, "mismatches": [{"vector": "W_a", "face": "D_{1,u4}",
                                      "got": "-4/1", "want": "-3/1"}]}
    trip = builds[-1]
    assert cs.isomorphic(trip.space, trip.commuted,
                         incidence="within") is not None


def test_degenerate_dimensions_full_pipeline():
    # all fibre and base dimensions zero: constructions and tables hold
    t0 = Tower(2, (1, 1, 1), 0, (0, 0))
    rep = verify_facemaps(t0)
    assert rep["tables"] == 9 and rep["mismatches"] == []
    d = double_space(t0)
    assert d.space.psub_meets("diag") == frozenset({"ff_z"})


@pytest.mark.parametrize("t,stage", [(T, "x"), (T, "y"), (T, "z"),
                                     (Tower(2, (1, 3, 1), 2, (1, 1)), "z")],
                         ids=["canonical-x", "canonical-y", "canonical-z",
                              "k2_orders-z"])
def test_relabelled_projection_equals_replayed(t, stage):
    trip = triple_space(t, stage)
    p1 = trip.projections[0]
    for i in (2, 3):
        derived = asp.relabel_projection(p1, i)
        assert derived.domain is trip.space
        assert derived.codomain is trip.projections[i - 1].codomain
        assert derived.rows == trip.projections[i - 1].rows


@cs.replay_scope()
def test_projection_tables_equal_replayed_projections():
    replayed = triple_space(asp.CANONICAL_TOWER).projections
    derived = asp.triple_projection_tables()
    assert [p.rows for p in derived] == [p.rows for p in replayed]


def test_facemap_verification_replays_every_projection(monkeypatch):
    # index 2 replaying the index-1 sequence must show up as mismatches,
    # so verify_facemaps (and acceptance criterion 2) does not derive
    # projections 2 and 3 from projection 1
    relabel = asp.relabel_seq
    monkeypatch.setattr(asp, "relabel_seq",
                        lambda seq, i: seq if i == 2 else relabel(seq, i))
    rep = verify_facemaps(asp.CANONICAL_TOWER)
    assert rep["tables"] == 9 and rep["mismatches"]
    tables = [m for m in rep["mismatches"] if "projection" in m]
    assert {m["projection"] for m in tables} == {2}
    # the pullback sum along the broken projection misses W_a as well
    assert {m["vector"] for m in rep["mismatches"]
            if m not in tables} == {"W_a"}

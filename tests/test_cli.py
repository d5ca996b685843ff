"""Front-end behavior: exit codes, determinism, serialization."""

import argparse
import json
import os
import pathlib
import subprocess
import sys

import pytest

import qhcalc
from qhcalc import a_spaces as asp
from qhcalc import cli
from qhcalc import op_calculus as oc
from qhcalc.a_spaces import Tower
from test_a_spaces import weight_rule_one_off
from test_corner_spaces import count_engine_calls


@pytest.fixture()
def tower_file(tmp_path):
    p = tmp_path / "tower.json"
    p.write_text(json.dumps({"k": 2, "a": [1, 1, 1], "b": 1, "f": [1, 1]}))
    return str(p)


def run(args):
    return cli.main(args)


def test_tower_validate(tower_file, capsys):
    assert run(["tower", "validate", "-c", tower_file]) == 0
    out = capsys.readouterr().out
    assert "valid" in out


def test_missing_config_is_usage_error(tmp_path):
    assert run(["tower", "validate", "-c", str(tmp_path / "nope.json")]) == 2


def test_unreadable_config_or_unwritable_output_is_usage_error(
        tower_file, tmp_path, capsys):
    for args in (["-c", str(tmp_path)],
                 ["-c", tower_file, "-o", str(tmp_path / "no" / "out")],
                 ["-c", tower_file, "-o", str(tmp_path)]):
        assert run(["tower", "validate"] + args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1


def test_space_double_deterministic(tower_file, capsys):
    assert run(["space", "double", "-c", tower_file, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert run(["space", "double", "-c", tower_file, "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    data = json.loads(first)
    assert data["e_left"] == [0, 1, 1, 1, 1]
    assert data["e_right"] == [1, 0, 1, 1, 1]


def test_facemap_verify(tower_file, capsys):
    assert run(["facemap", "verify", "-c", tower_file]) == 0
    assert "9 tables, 0 mismatches" in capsys.readouterr().out


def test_weights_seeded_reports_identical(tower_file, capsys):
    assert run(["weights", "-c", tower_file, "--seed", "3",
                "--sweep", "4"]) == 0
    a = capsys.readouterr().out
    assert run(["weights", "-c", tower_file, "--seed", "3",
                "--sweep", "4"]) == 0
    b = capsys.readouterr().out
    assert a == b
    assert "usually displayed form" in a


def test_compose_roundtrip(tower_file, tmp_path, capsys):
    t = Tower(2, (1, 1, 1), 1, (1, 1))
    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    from qhcalc.index_algebra import make
    P = oc.op_class(t, 0, lf=make((1, 0)), ff_z=make((0, 0)))
    Q = oc.op_class(t, 0, rf=make((2, 0)), ff_z=make((0, 0)))
    p.write_text(json.dumps(oc.class_to_json(P)))
    q.write_text(json.dumps(oc.class_to_json(Q)))
    assert run(["compose", "-c", tower_file, "-P", str(p),
                "-Q", str(q)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["family"]["ff_z"] == [["0/1", "0/1", 0], ["8/1", "0/1", 1]]


def test_compose_nonintegrable_exit_code(tower_file, tmp_path, capsys):
    t = Tower(2, (1, 1, 1), 1, (1, 1))
    from qhcalc.index_algebra import make
    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    p.write_text(json.dumps(oc.class_to_json(
        oc.op_class(t, 0, rf=make((0, 0)), ff_z=make((0, 0))))))
    q.write_text(json.dumps(oc.class_to_json(
        oc.op_class(t, 0, lf=make((0, 0)), ff_z=make((0, 0))))))
    assert run(["compose", "-c", tower_file, "-P", str(p),
                "-Q", str(q)]) == 1
    assert "not integrable" in capsys.readouterr().err


def test_act(tower_file, tmp_path, capsys):
    t = Tower(2, (1, 1, 1), 1, (1, 1))
    from qhcalc.index_algebra import make
    p = tmp_path / "p.json"
    i = tmp_path / "i.json"
    p.write_text(json.dumps(oc.class_to_json(oc.small(t, 0, 0))))
    i.write_text(json.dumps({"set": [["0/1", "0/1", 0]]}))
    assert run(["act", "-c", tower_file, "-P", str(p), "-I", str(i)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["set"] == [["0/1", "0/1", 0]]


def test_parametrix(tower_file, capsys):
    assert run(["parametrix", "-c", tower_file, "-m", "2"]) == 0
    assert "verified" in capsys.readouterr().out


def test_resolvent_check(tower_file, capsys):
    assert run(["resolvent-check", "-c", tower_file, "--lambda=-1",
                "--N", "4", "--radius", "3"]) == 0
    assert "margin 1" in capsys.readouterr().out
    assert run(["resolvent-check", "-c", tower_file, "--lambda=4pi^2",
                "--N", "4", "--radius", "3"]) == 1
    assert "witness" in capsys.readouterr().out


def test_resolvent_check_half_line_without_witness(tmp_path, capsys):
    # with f_2 = 0 no fibre mode has |k|^2 = 1, so 1 + 4pi^2 has no witness
    path = tmp_path / "f00.json"
    path.write_text(json.dumps({"k": 2, "a": [1, 1, 1], "b": 1,
                                "f": [0, 0]}))
    assert run(["resolvent-check", "-c", str(path), "--lambda=1+4pi^2",
                "--N", "2", "--radius", "2"]) == 1
    assert capsys.readouterr().out == (
        "rejected: spectral parameter on the real half-line [0, inf); "
        "no witness mode within the truncation and grid\n")


def test_lambda_parser():
    from fractions import Fraction
    assert cli.parse_lambda("-1") == (-1, 0, 0)
    assert cli.parse_lambda("i") == (0, 0, 1)
    assert cli.parse_lambda("-3+2i") == (-3, 0, 2)
    assert cli.parse_lambda("4pi^2") == (0, 4, 0)
    assert cli.parse_lambda("1/2-3/4i") == (Fraction(1, 2), 0,
                                            Fraction(-3, 4))
    assert cli.parse_lambda("1+2pi^2") == (1, 2, 0)
    with pytest.raises(ValueError):
        cli.parse_lambda("")


def test_normal_family_output(tower_file, capsys):
    assert run(["normal-family", "-c", tower_file, "--N", "2",
                "--mu", "1,0,0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["diagonal"] and data["exact"] and data["dim"] == 5


def test_export_dot(tower_file, tmp_path):
    out = tmp_path / "g.dot"
    assert run(["export-dot", "-c", tower_file, "--space", "double",
                "-o", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("graph") and '"ff_z"' in text


def test_space_triple_dot_replays_no_projection(tower_file, monkeypatch,
                                                capsys):
    # the dot view prints only the space, so it takes the export-dot path
    def refuse(*args):
        raise AssertionError("triple projection replayed for a dot view")

    monkeypatch.setattr(asp, "_triple_projection", refuse)
    assert run(["space", "triple", "-c", tower_file, "--format", "dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith('graph "triple space" {')
    assert run(["export-dot", "-c", tower_file, "--space", "triple"]) == 0
    assert capsys.readouterr().out == dot


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cold_space_triple_derives_the_commuted_path_once(
        fmt, tower_file, monkeypatch, capsys):
    # the three projections and the isomorphism check read one
    # derivation of the commuted path: 51 rewrite steps on this tower
    counts = count_engine_calls(monkeypatch)
    assert run(["space", "triple", "-c", tower_file, "--format", fmt]) == 0
    golden = pathlib.Path(__file__).parent / "golden" / "k2__space_triple.txt"
    assert capsys.readouterr().out == {
        "text": "triple space: 24 boundary hypersurfaces\n"
                "projections are b-fibrations: True\n"
                "symmetric and commuted constructions isomorphic: True\n",
        "json": golden.read_text().removeprefix("exit 0\n")}[fmt]
    assert counts["commuted_triple_seq"] == 1
    assert counts["rewrite_step"] == 51


def test_no_command_is_usage_error(capsys):
    assert run([]) == 2


def test_normal_family_from_operator_spec(tower_file, tmp_path, capsys):
    spec = {"terms": [
        {"alpha": 2, "I": [0], "J": [0], "K": [0],
         "coeff": {"x_poly": [[0, "1", "0"]]}},
        {"alpha": 0, "I": [0], "J": [0], "K": [2],
         "coeff": {"x_poly": [[0, "1", "0"]]}},
        {"alpha": 0, "I": [0], "J": [0], "K": [0],
         "coeff": {"x_poly": [[0, "3", "0"]],
                   "trig": [{"modes": [0, 0, 1], "re": "1/2", "im": "0"}]}},
    ]}
    op = tmp_path / "op.json"
    op.write_text(json.dumps(spec))
    assert run(["normal-family", "-c", tower_file, "-O", str(op),
                "--N", "2", "--mu", "1,0,0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dim"] == 5 and data["exact"]
    assert not data["diagonal"]          # the trig factor shifts modes


def _one_line_usage_error(args, capsys):
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1
    return err


def test_config_without_k_is_usage_error(tmp_path, capsys):
    p = tmp_path / "tower.json"
    p.write_text(json.dumps({"a": [1], "b": 1, "f": []}))
    err = _one_line_usage_error(["tower", "validate", "-c", str(p)], capsys)
    assert "'k'" in err


def test_config_not_json_is_usage_error(tmp_path, capsys):
    p = tmp_path / "tower.json"
    p.write_text("k = 2")
    err = _one_line_usage_error(["tower", "validate", "-c", str(p)], capsys)
    assert "not JSON" in err


def test_parametrix_bad_order_is_usage_error(tower_file, capsys):
    err = _one_line_usage_error(["parametrix", "-c", tower_file, "-m", "x"],
                                capsys)
    assert "-m" in err


def test_resolvent_zero_step_is_usage_error(tower_file, capsys):
    err = _one_line_usage_error(["resolvent-check", "-c", tower_file,
                                 "--lambda=-1", "--step", "0"], capsys)
    assert "--step" in err


def test_act_index_set_without_set_is_usage_error(tower_file, tmp_path,
                                                  capsys):
    t = Tower(2, (1, 1, 1), 1, (1, 1))
    p = tmp_path / "p.json"
    i = tmp_path / "i.json"
    p.write_text(json.dumps(oc.class_to_json(oc.small(t, 0, 0))))
    i.write_text(json.dumps({"nope": []}))
    err = _one_line_usage_error(["act", "-c", tower_file, "-P", str(p),
                                 "-I", str(i)], capsys)
    assert "'set'" in err


def _other_depth_towers(tmp_path):
    # depth 3 as well: the engine builds stage z there, and no command
    # may reach it past its depth error
    for k, cfg in ((0, {"k": 0, "a": [1], "b": 1, "f": []}),
                   (1, {"k": 1, "a": [1, 2], "b": 1, "f": [1]}),
                   (3, {"k": 3, "a": [1, 1, 2, 1], "b": 1, "f": [1, 0, 1]})):
        p = tmp_path / f"tower{k}.json"
        p.write_text(json.dumps(cfg))
        yield str(p)


def _needs_depth_2(args, capsys, what="model operators need"):
    assert run(args) == 1
    assert capsys.readouterr().err == f"{what} tower depth 2\n"


def test_normal_family_needs_depth_2(tmp_path, capsys):
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"terms": [{"alpha": 2}]}))
    for path in _other_depth_towers(tmp_path):
        _needs_depth_2(["normal-family", "-c", path], capsys)
        _needs_depth_2(["normal-family", "-c", path, "-O", str(op)], capsys)


def test_triple_space_needs_depth_2(tmp_path, capsys):
    # every triple view runs the one depth check of ``tower`` before it
    # loads the engine, so all three say the same line
    for path in _other_depth_towers(tmp_path):
        for args in (["space", "triple"],
                     ["space", "triple", "--format", "dot"],
                     ["export-dot", "--space", "triple"]):
            _needs_depth_2(args + ["-c", path], capsys,
                           "triple space needs")


def test_weights_needs_depth_2(tmp_path, capsys):
    for path in _other_depth_towers(tmp_path):
        _needs_depth_2(["weights", "-c", path], capsys, "weight tables need")


def test_resolvent_check_needs_depth_2(tmp_path, capsys):
    for path in _other_depth_towers(tmp_path):
        _needs_depth_2(["resolvent-check", "-c", path, "--lambda=-1"],
                       capsys)


def test_compose_and_parametrix_need_depth_2(tmp_path, capsys):
    from qhcalc.index_algebra import make
    t = Tower(2, (1, 1, 1), 1, (1, 1))
    p = tmp_path / "p.json"
    p.write_text(json.dumps(oc.class_to_json(
        oc.op_class(t, 0, lf=make((1, 0)), ff_z=make((0, 0))))))
    for path in _other_depth_towers(tmp_path):
        _needs_depth_2(["compose", "-c", path, "-P", str(p), "-Q", str(p)],
                       capsys, "operator composition needs")
        _needs_depth_2(["parametrix", "-c", path], capsys,
                       "operator composition needs")


def test_operator_file_without_terms_is_usage_error(tower_file, tmp_path,
                                                    capsys):
    op = tmp_path / "op.json"
    for data in ({}, [], {"terms": 3}):
        op.write_text(json.dumps(data))
        err = _one_line_usage_error(["normal-family", "-c", tower_file,
                                     "-O", str(op)], capsys)
        assert "'terms'" in err


def test_operator_term_or_coeff_not_an_object_is_usage_error(tower_file,
                                                             tmp_path,
                                                             capsys):
    op = tmp_path / "op.json"
    for data in ({"terms": [1]}, {"terms": [{"coeff": []}]}):
        op.write_text(json.dumps(data))
        err = _one_line_usage_error(["normal-family", "-c", tower_file,
                                     "-O", str(op)], capsys)
        assert "'coeff'" in err


@pytest.mark.parametrize("term", [
    {"I": 3}, {"coeff": {"x_poly": 5}}, {"coeff": {"trig": [{"modes": 7}]}},
    {"coeff": {"trig": [{"modes": [0, 0, 0], "re": "q"}]}}, {"alpha": "z"},
    {"coeff": {"trig": [{"modes": [0, 0, 0], "re": 0.1}]}},
    {"coeff": {"x_poly": [[1, "1", 0.5]]}}],
    ids=["I-not-a-list", "x_poly-not-a-list", "modes-not-a-list",
         "re-not-rational", "alpha-not-an-integer", "re-float",
         "x_poly-im-float"])
def test_malformed_operator_term_is_usage_error(term, tower_file, tmp_path,
                                                capsys):
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"terms": [term]}))
    err = _one_line_usage_error(["normal-family", "-c", tower_file, "-O",
                                 str(op)], capsys)
    assert "term 0 is malformed" in err


@pytest.mark.parametrize("term", [
    {"alpha": 2.7}, {"alpha": True}, {"alpha": 2, "K": [1.5, 0]},
    {"I": ["1"]}, {"coeff": {"trig": [{"modes": [0, 0, 0.5]}]}},
    {"coeff": {"trig": [{"modes": [0, True, 0]}]}},
    {"coeff": {"x_poly": [[1.7, "1", "0"]]}},
    {"coeff": {"x_poly": [[True, "1", "0"]]}},
    {"coeff": {"x_poly": [["0", "1", "0"]]}},
    {"coeff": {"x_poly": [[-1, "1", "0"]]}}],
    ids=["alpha-float", "alpha-bool", "K-float", "I-string", "mode-float",
         "mode-bool", "x-power-float", "x-power-bool", "x-power-string",
         "x-power-negative"])
def test_non_integer_multi_index_is_usage_error(term, tower_file, tmp_path,
                                                capsys):
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"terms": [term]}))
    err = _one_line_usage_error(["normal-family", "-c", tower_file, "-O",
                                 str(op), "--N", "1", "--mu", "1,0,0"],
                                capsys)
    assert err.startswith(f"{op}: term 0 ") and "integers" in err


def test_negative_sweep_is_usage_error(tower_file, capsys):
    err = _one_line_usage_error(["weights", "-c", tower_file, "--sweep",
                                 "-3"], capsys)
    assert "--sweep" in err


def test_bad_point_mu_or_truncation_is_usage_error(tower_file, capsys):
    for opt, value in (("--point", "1/3,x"), ("--mu", "1,0,1/0")):
        err = _one_line_usage_error(["normal-family", "-c", tower_file,
                                     opt, value], capsys)
        assert opt in err
    for args in (["normal-family"], ["resolvent-check", "--lambda=-1"]):
        err = _one_line_usage_error(args + ["-c", tower_file, "--N", "-1"],
                                    capsys)
        assert "--N" in err


def test_operator_shape_mismatch_is_domain_error(tower_file, tmp_path,
                                                 capsys):
    op = tmp_path / "op.json"
    for data, what in (({"terms": [{"I": [0, 0, 0]}]}, "lengths (1, 1, 1)"),
                       ({"terms": [{"coeff": {"trig": [{"modes": [1]}]}}]},
                        "modes need length 3")):
        op.write_text(json.dumps(data))
        assert run(["normal-family", "-c", tower_file, "-O", str(op)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and what in err


_TOWER = {"k": 2, "a": [1, 1, 1], "b": 1, "f": [1, 1]}


@pytest.mark.parametrize("fields", [
    {"a": 5}, {"b": [1]}, {"a": [1, None, 1]}, {"f": 3},
    {"a": [1, 1.5, 1], "b": 1.7}, {"k": "2"}, {"k": True}],
    ids=["a-not-a-list", "b-a-list", "a-null-entry", "f-not-a-list",
         "non-integer-entries", "k-a-string", "k-a-boolean"])
def test_tower_with_wrong_types_is_usage_error(fields, tmp_path, capsys):
    p = tmp_path / "tower.json"
    p.write_text(json.dumps(dict(_TOWER, **fields)))
    err = _one_line_usage_error(["tower", "validate", "-c", str(p)], capsys)
    assert err.startswith(f"{p}: ")


def test_well_typed_invalid_tower_is_domain_error(tmp_path, capsys):
    p = tmp_path / "tower.json"
    p.write_text(json.dumps(dict(_TOWER, a=[1, 0, 1])))
    assert run(["tower", "validate", "-c", str(p)]) == 1
    assert capsys.readouterr().err == "orders must be positive integers\n"


def _class_with(entry):
    return {"order": "0", "family": {"ff_z": [entry]}}


@pytest.mark.parametrize("data", [
    [3], {"family": [1]}, {"family": {"rf": 5}}, {"order": "x"},
    {"order": 0.1},
    _class_with(["1/0", "0", 0]), _class_with(["a", "0", 0]),
    _class_with(["1", "0"]), _class_with(["1", "0", 1.5]),
    _class_with([0.5, "0", 0]), _class_with(["1", "0", -1])],
    ids=["not-an-object", "family-a-list", "face-not-a-list", "bad-order",
         "float-order", "zero-denominator", "re-not-rational", "short-entry",
         "non-integer-log-power", "float-re", "negative-log-power"])
@pytest.mark.parametrize("command", ["compose", "act"])
def test_malformed_class_file_is_usage_error(data, command, tower_file,
                                             tmp_path, capsys):
    t = Tower(2, (1, 1, 1), 1, (1, 1))
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(json.dumps(data))
    good.write_text(json.dumps(oc.class_to_json(oc.small(t, 0, 0))))
    i = tmp_path / "i.json"
    i.write_text(json.dumps({"set": [["0/1", "0/1", 0]]}))
    second = ["-Q", str(good)] if command == "compose" else ["-I", str(i)]
    err = _one_line_usage_error(
        [command, "-c", tower_file, "-P", str(bad)] + second, capsys)
    assert err.startswith(f"{bad}: ")


@pytest.mark.parametrize("data", [
    [["0", "0", 0]], {"set": 5}, {"set": {"a": 1}}, {"set": [["1/0", 0, 0]]},
    {"set": [["a", "0", 0]]}, {"set": [3]}, {"set": [["1", "0", "1"]]}],
    ids=["not-an-object", "set-a-number", "set-an-object",
         "zero-denominator", "re-not-rational", "entry-a-number",
         "log-power-a-string"])
def test_malformed_index_set_file_is_usage_error(data, tower_file, tmp_path,
                                                 capsys):
    t = Tower(2, (1, 1, 1), 1, (1, 1))
    p, i = tmp_path / "p.json", tmp_path / "i.json"
    p.write_text(json.dumps(oc.class_to_json(oc.small(t, 0, 0))))
    i.write_text(json.dumps(data))
    err = _one_line_usage_error(
        ["act", "-c", tower_file, "-P", str(p), "-I", str(i)], capsys)
    assert err.startswith(f"{i}: ")


def test_facemap_verify_writes_every_mismatch_to_the_output(
        tower_file, tmp_path, monkeypatch, capsys):
    rep = {"tables": 9, "mismatches": [
        {"stage": "x", "projection": 1, "face": "lf", "got": ("a",),
         "want": ("b",)},
        {"stage": "z", "projection": 3, "face": "rf", "got": (),
         "want": ("c", "d")}]}
    monkeypatch.setattr(asp, "verify_facemaps", lambda t: rep)
    out = tmp_path / "report.txt"
    assert run(["facemap", "verify", "-c", tower_file, "-o", str(out)]) == 1
    assert capsys.readouterr().out == ""
    assert out.read_text() == (
        "9 tables, 2 mismatches\n"
        "  stage x projection 1 face lf: got ('a',), want ('b',)\n"
        "  stage z projection 3 face rf: got (), want ('c', 'd')\n")


@pytest.mark.parametrize("tower, vector, face, line", [
    ({"k": 2, "a": [1, 1, 1], "b": 1, "f": [1, 1]}, "W_a0", "F_{2,z}",
     "9 tables, 1 mismatches\n  W_a0 face F_{2,z}: got 7/1, want 8/1"),
    ({"k": 2, "a": [1, 1, 1], "b": 1, "f": [1, 1]}, "W_a", "V_y",
     "9 tables, 1 mismatches\n  W_a face V_y: got -2/1, want -1/1"),
    ({"k": 3, "a": [1, 2, 1, 3], "b": 0, "f": [1, 0, 2]}, "W_a0", "F_{1,u}",
     "12 tables, 1 mismatches\n  W_a0 face F_{1,u}: got 12/1, want 13/1")],
    ids=["W_a0-depth-2", "W_a-depth-2", "W_a0-depth-3"])
def test_facemap_verify_fails_on_a_mutated_weight_closed_form(
        tower, vector, face, line, tmp_path, monkeypatch, capsys):
    # the verify compares the replayed weights with the rule the commands
    # read, at every depth, so a change of one term is caught and named
    weight_rule_one_off(monkeypatch, vector, face)
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(tower))
    assert run(["facemap", "verify", "-c", str(path)]) == 1
    assert capsys.readouterr().out == f"{line}\n"


def test_closed_rule_commands_need_unit_a0(tmp_path, capsys):
    # the weights state what a space construction gives, so the commands
    # that read them refuse a tower no space can be built for, with the
    # line the space commands print
    from qhcalc.index_algebra import make
    t = Tower(2, (2, 1, 1), 1, (1, 1))
    paths = {}
    for name, value in (
            ("tower", t.to_json()),
            ("P", oc.class_to_json(oc.op_class(t, 0, lf=make((1, 0))))),
            ("Q", oc.class_to_json(oc.op_class(t, 0, rf=make((2, 0)))))):
        paths[name] = str(tmp_path / f"{name}.json")
        pathlib.Path(paths[name]).write_text(json.dumps(value))
    for args in (["space", "double"], ["weights"], ["parametrix"],
                 ["compose", "-P", paths["P"], "-Q", paths["Q"]]):
        assert run(args + ["-c", paths["tower"]]) == 1, args
        assert capsys.readouterr().err == "space constructions need a_0 = 1\n"


# the formats each command writes; a command not listed takes no --format
FORMATS = {
    ("tower", "validate"): ["text", "json"],
    ("space", "double"): ["text", "json", "dot"],
    ("space", "triple"): ["text", "json", "dot"],
    ("facemap", "verify"): ["text", "json"],
    ("weights",): ["text", "json"],
    ("parametrix",): ["text", "json"],
}


def _subcommands(parser, path=()):
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _subcommands(sub, path + (name,))


def test_format_choices_are_the_formats_each_command_writes():
    got = {}
    for path, parser in _subcommands(cli.build_parser()):
        opts = [a for a in parser._actions if "--format" in a.option_strings]
        got[path] = list(opts[0].choices) if opts else None
    assert len(got) == 11
    assert {p: c for p, c in got.items() if c is not None} == FORMATS


def test_format_on_a_command_without_formats_is_usage_error(tower_file,
                                                            capsys):
    with pytest.raises(SystemExit) as e:
        run(["compose", "-c", tower_file, "-P", "p.json", "-Q", "q.json",
             "--format", "text"])
    assert e.value.code == 2
    assert "--format" in capsys.readouterr().err


def _python(*args, **kwargs):
    """Run a fresh interpreter that imports this checkout's package."""
    src = str(pathlib.Path(qhcalc.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path
                                            else ""))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60,
                          **kwargs)


def test_module_entry_point_runs_without_warnings(tower_file):
    p = _python("-W", "error", "-m", "qhcalc.cli", "tower", "validate",
                "-c", tower_file)
    assert p.returncode == 0 and p.stderr == ""
    assert "valid" in p.stdout


def test_package_and_cli_import_without_numpy():
    # sympy is test-only
    p = _python("-c", "import sys, qhcalc, qhcalc.cli; "
                      "print('numpy' in sys.modules, 'sympy' in sys.modules)")
    assert p.returncode == 0 and p.stdout == "False False\n"


# Each command form, run in a fresh interpreter, and the qhcalc modules it
# loads besides the package, ``cli`` and ``tower``; "numpy" marks numpy.
_LOADS = """\
import contextlib, io, json, sys
import qhcalc.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = qhcalc.cli.main(sys.argv[1:])
print(code, json.dumps(sorted(m for m in sys.modules
                              if m.startswith("qhcalc.") or m == "numpy")))
"""
_ENGINE = {"a_spaces", "corner_spaces"}
_CLASSES = {"index_algebra", "op_calculus"}
_MODEL = {"index_algebra", "model_symbols"}


@pytest.mark.parametrize("argv, code, loads", [
    ("tower validate -c {t2}", 0, set()),
    ("space double -c {t2}", 0, _ENGINE),
    ("space triple -c {t1}", 1, set()),
    ("space triple -c {t1} --format dot", 1, set()),
    ("facemap verify -c {t0}", 0, _ENGINE | {"densities", "index_algebra"}),
    ("facemap verify -c {t2}", 0, _ENGINE | {"densities", "index_algebra"}),
    ("export-dot -c {t2}", 0, _ENGINE),
    ("export-dot -c {t1} --space triple", 1, set()),
    ("weights -c {t2} --sweep 0", 0, _CLASSES | {"densities"}),
    ("weights -c {t1}", 1, set()),
    ("compose -c {t2} -P {P} -Q {Q}", 0, _CLASSES | {"densities"}),
    ("compose -c {t2} -P {Pbad} -Q {Qbad}", 1, _CLASSES),
    ("compose -c {t1} -P {P} -Q {Q}", 1, _CLASSES),
    ("act -c {t2} -P {P} -I {I}", 0, _CLASSES),
    ("parametrix -c {t2} -m 2", 0, _CLASSES | {"densities"}),
    ("parametrix -c {t1}", 1, _CLASSES),
    ("normal-family -c {t1}", 1, _MODEL),
    ("normal-family -c {t2} --N 2", 0, _MODEL),
    ("normal-family -c {t2} --N 2 -O {O}", 0, _MODEL),
    ("resolvent-check -c {t1} --lambda=-1", 1, _MODEL),
    ("resolvent-check -c {t2} --lambda=-1 --N 1 --radius 1", 0,
     _MODEL | {"numpy"}),
], ids=["tower-validate", "space-double", "space-triple-depth-1",
        "space-triple-dot-depth-1", "facemap-verify-depth-0",
        "facemap-verify", "export-dot", "export-dot-triple-depth-1",
        "weights", "weights-depth-1", "compose", "compose-rejected",
        "compose-depth-1", "act", "parametrix", "parametrix-depth-1",
        "normal-family-depth-1", "normal-family", "normal-family-operator",
        "resolvent-check-depth-1", "resolvent-check"])
def test_command_loads_only_the_modules_it_runs(argv, code, loads, tmp_path):
    from qhcalc.index_algebra import make
    t = Tower(2, (1, 1, 1), 1, (1, 1))
    data = {
        "t0": {"k": 0, "a": [1], "b": 1, "f": []},
        "t1": {"k": 1, "a": [1, 2], "b": 1, "f": [1]},
        "t2": t.to_json(),
        "P": oc.class_to_json(oc.op_class(t, 0, lf=make((1, 0)))),
        "Q": oc.class_to_json(oc.op_class(t, 0, rf=make((2, 0)))),
        "Pbad": oc.class_to_json(oc.op_class(t, 0, rf=make((0, 0)))),
        "Qbad": oc.class_to_json(oc.op_class(t, 0, lf=make((0, 0)))),
        "I": {"set": [["1", "0", 0]]},
        "O": {"terms": [{"alpha": 2}, {"K": [2]}]}}
    paths = {}
    for name, value in data.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(value))
    p = _python("-c", _LOADS, *argv.format(**paths).split())
    assert p.returncode == 0, p.stderr
    got_code, got = p.stdout.split(" ", 1)
    assert int(got_code) == code
    assert json.loads(got) == sorted(
        "numpy" if m == "numpy" else f"qhcalc.{m}"
        for m in loads | {"cli", "tower"})


def test_package_loads_each_submodule_on_first_access():
    p = _python("-c", """\
import sys
import qhcalc
def loaded():
    return sorted(m[7:] for m in sys.modules if m.startswith("qhcalc."))
print(loaded())
print(qhcalc.Tower is qhcalc.tower.Tower, loaded())
from qhcalc.a_spaces import Tower
print(Tower is qhcalc.Tower, loaded())
""")
    assert p.returncode == 0, p.stderr
    assert p.stdout == ("[]\n"
                        "True ['tower']\n"
                        "True ['a_spaces', 'corner_spaces', 'tower']\n")
    assert set(qhcalc.__all__) <= set(dir(qhcalc))
    assert {"Tower", "cli", "model_symbols", "tower"} <= set(dir(qhcalc))
    assert qhcalc.op_calculus is oc and qhcalc.Tower is Tower
    with pytest.raises(AttributeError, match="'nope'"):
        qhcalc.nope
    with pytest.raises(ImportError):
        from qhcalc import nope  # noqa: F401


@pytest.mark.parametrize("lam", ["1/0", "-1+1/0i", "2/0pi^2"])
def test_lambda_with_zero_denominator_is_usage_error(lam, tower_file,
                                                     capsys):
    err = _one_line_usage_error(["resolvent-check", "-c", tower_file,
                                 f"--lambda={lam}"], capsys)
    assert f"spectral parameter {lam!r}" in err


@pytest.mark.parametrize("term", [
    {"alpha": -1}, {"I": [-1]}, {"J": [-2]}, {"alpha": 2, "K": [-1]}],
    ids=["alpha", "I", "J", "K"])
def test_negative_multi_index_is_usage_error(term, tower_file, tmp_path,
                                             capsys):
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"terms": [term]}))
    err = _one_line_usage_error(["normal-family", "-c", tower_file, "-O",
                                 str(op), "--N", "1"], capsys)
    assert err.startswith(f"{op}: term 0 is malformed: ")
    assert "nonnegative" in err


@pytest.mark.parametrize("argv", [
    ["normal-family", "--mu", "1,0,0"], ["resolvent-check", "--lambda=-1"]],
    ids=["normal-family", "resolvent-check"])
def test_unbuildable_truncation_is_one_line_domain_error(argv, tmp_path,
                                                         capsys):
    # (2N + 1)^2 modes used to be built until memory ran out
    p = tmp_path / "tower.json"
    p.write_text(json.dumps({"k": 2, "a": [1, 1, 1], "b": 1, "f": [1, 2]}))
    assert run(argv + ["-c", str(p), "--N", "9999999999"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "truncation 9999999999 exceeds 65536 modes, (2N + 1)^f2 with "
        "f2 = 2\n")
    # 255^2 modes are admitted, 257^2 are not
    for N, code in ((127, 0), (128, 1)):
        assert run(["resolvent-check", "-c", str(p), "--lambda=-1",
                    "--radius", "0", "--N", str(N)]) == code
    capsys.readouterr()


def _address_space_cap():
    # a grid built before it is checked fails here within the cap, not
    # after taking the machine's memory
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_oversized_grid_is_one_line_domain_error(tower_file):
    # an axis of 2 radius/step + 1 values used to be built with no limit:
    # this radius ran with no output until it was killed
    p = _python("-m", "qhcalc.cli", "resolvent-check", "-c", tower_file,
                "--lambda=-1", "--radius", "100000000",
                preexec_fn=_address_space_cap)
    assert (p.returncode, p.stdout) == (1, "")
    assert p.stderr == ("grid of radius 100000000 and step 1/2 exceeds 256 "
                        "values per axis, 2 radius/step + 1\n")
    # 255 values are admitted, 257 are not
    for radius, code in (("127/2", 0), ("64", 1)):
        assert run(["resolvent-check", "-c", tower_file, "--lambda=-1",
                    "--N", "1", "--radius", radius]) == code


def test_half_line_witness_search_is_not_exponential(tmp_path):
    # the witness search over a grid of dimension 7 used to recurse
    # through every sum of squares: this ran past a 60 s timeout
    p = tmp_path / "tower.json"
    p.write_text(json.dumps({"k": 2, "a": [1, 1, 1], "b": 3, "f": [3, 1]}))
    p = _python("-m", "qhcalc.cli", "resolvent-check", "-c", str(p),
                "--N", "1", "--lambda=700.125")
    assert (p.returncode, p.stderr) == (1, "")
    assert p.stdout == ("rejected: spectral parameter on the real "
                        "half-line [0, inf); no witness mode within the "
                        "truncation and grid\n")


def test_spectrum_witness_search_stops_at_the_square_root(tmp_path, capsys):
    # without a deep fibre there is one mode at any N; the witness search
    # used to list the squares of all N + 1 modes
    p = tmp_path / "tower.json"
    p.write_text(json.dumps({"k": 2, "a": [1, 1, 1], "b": 1, "f": [1, 0]}))
    assert run(["resolvent-check", "-c", str(p), "--lambda=1", "--radius",
                "1", "--N", "9999999999"]) == 1
    assert capsys.readouterr().out == (
        "rejected: spectral parameter on the model spectrum; witness "
        "|mu|^2 = 1, |k|^2 = 0\n")


@pytest.mark.parametrize("command", ["compose", "act"])
def test_class_with_unknown_face_is_usage_error(command, tower_file,
                                                tmp_path, capsys):
    bad, i = tmp_path / "bad.json", tmp_path / "i.json"
    bad.write_text(json.dumps({"order": "0", "family": {
        "ff_z": [["1", "0", 0]], "ff_Z": [["-1", "0", 0]]}}))
    i.write_text(json.dumps({"set": [["1", "0", 0]]}))
    second = ["-Q", str(bad)] if command == "compose" else ["-I", str(i)]
    err = _one_line_usage_error(
        [command, "-c", tower_file, "-P", str(bad)] + second, capsys)
    assert err.startswith(f"{bad}: ") and "'ff_Z'" in err


@pytest.mark.parametrize("option", ["-c", "-P", "-I"])
def test_non_utf8_input_is_usage_error(option, tower_file, tmp_path, capsys):
    t = Tower(2, (1, 1, 1), 1, (1, 1))
    files = {"-c": tower_file, "-P": tmp_path / "p.json",
             "-I": tmp_path / "i.json"}
    files["-P"].write_text(json.dumps(oc.class_to_json(oc.small(t, 0, 0))))
    files["-I"].write_text(json.dumps({"set": [["1", "0", 0]]}))
    files[option] = tmp_path / "latin1.json"
    files[option].write_bytes('{"set": "é"}'.encode("latin-1"))
    args = ["act"] + [str(x) for opt in files for x in (opt, files[opt])]
    err = _one_line_usage_error(args, capsys)
    assert err.startswith(f"{files[option]} is not JSON: ")

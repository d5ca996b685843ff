"""Front-end behavior: exit codes, determinism, serialization."""

import json

import pytest

from qhcalc import cli
from qhcalc import op_calculus as oc
from qhcalc.a_spaces import Tower


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


def _shallow_towers(tmp_path):
    for k, cfg in ((0, {"k": 0, "a": [1], "b": 1, "f": []}),
                   (1, {"k": 1, "a": [1, 2], "b": 1, "f": [1]})):
        p = tmp_path / f"tower{k}.json"
        p.write_text(json.dumps(cfg))
        yield str(p)


def _needs_depth_2(args, capsys, what="model operators need"):
    assert run(args) == 1
    assert capsys.readouterr().err == f"{what} tower depth 2\n"


def test_normal_family_needs_depth_2(tmp_path, capsys):
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"terms": [{"alpha": 2}]}))
    for path in _shallow_towers(tmp_path):
        _needs_depth_2(["normal-family", "-c", path], capsys)
        _needs_depth_2(["normal-family", "-c", path, "-O", str(op)], capsys)


def test_resolvent_check_needs_depth_2(tmp_path, capsys):
    for path in _shallow_towers(tmp_path):
        _needs_depth_2(["resolvent-check", "-c", path, "--lambda=-1"],
                       capsys)


def test_compose_and_parametrix_need_depth_2(tmp_path, capsys):
    from qhcalc.index_algebra import make
    t = Tower(2, (1, 1, 1), 1, (1, 1))
    p = tmp_path / "p.json"
    p.write_text(json.dumps(oc.class_to_json(
        oc.op_class(t, 0, lf=make((1, 0)), ff_z=make((0, 0))))))
    for path in _shallow_towers(tmp_path):
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
    {"coeff": {"trig": [{"modes": [0, 0, 0], "re": "q"}]}}, {"alpha": "z"}],
    ids=["I-not-a-list", "x_poly-not-a-list", "modes-not-a-list",
         "re-not-rational", "alpha-not-an-integer"])
def test_malformed_operator_term_is_usage_error(term, tower_file, tmp_path,
                                                capsys):
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"terms": [term]}))
    err = _one_line_usage_error(["normal-family", "-c", tower_file, "-O",
                                 str(op)], capsys)
    assert "term 0 is malformed" in err


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

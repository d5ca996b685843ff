"""Golden CLI reports and engine states, byte for byte.

The files in ``tests/golden/`` were written by the corner engine before
its data layer was rebuilt on indexed merges and spaces; every later
version must reproduce them exactly.  The CLI files hold a command's
exit code and stdout, followed by its stderr when there is any.  The
calculus reports (``compose``, a rejected ``compose``, ``act`` and
``parametrix``) run on the fixed class and index-set files of
``INPUTS`` and were written before composition was compiled into a
per-face plan.  The model-operator reports (``normal-family``,
``resolvent-check``) and ``tower validate`` and ``export-dot --space
double`` were written before ``Coeff`` and ``PiPoly`` were rebuilt on
one sparse algebra; on the depth-0 and depth-1 towers the model
operator files hold the one-line depth error.  The engine files hold
the whole tracked state (valuations, merges, strata, diagonal meet
sets, registry, history) of the double space and of the symmetric and
commuted triple spaces, which the reports show only in part.  Three
depth-2 towers with a zero base or fibre dimension, and the stdout of
each demo script run in this process, were frozen before the triple
space's levels x, y and z were rebuilt as one level loop.  To write
them from a checkout whose reports are trusted, run ``python
tests/test_golden.py`` with that checkout's ``src`` on ``PYTHONPATH``.

On the towers with non-unit orders the commuted replay gives
``G_{1,y}`` and ``F_{1,z}`` each other's creation orders, because rule 3
of ``rewrite_step`` turns the orders (a_y, a_w, a_w) of the exchanged
triple into (a_w, a_y, a_y).  Their ``space triple`` files were first
frozen with ``constructions_isomorphic: false``; they read ``true``
since the isomorphism compares cumulative blowup weights, which are
invariants of the space, instead of creation orders.
"""

import io
import json
import pathlib
import runpy
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from qhcalc import a_spaces as asp
from qhcalc import cli
from qhcalc import corner_spaces as cs
from test_corner_spaces import seq_to_json

GOLDEN = pathlib.Path(__file__).parent / "golden"
DEMOS = pathlib.Path(__file__).parent.parent / "demos"
DEMO_NAMES = sorted(p.stem[len("demo_"):] for p in DEMOS.glob("demo_*.py"))

TOWERS = {
    "k0": {"k": 0, "a": [1], "b": 2, "f": []},
    "k1": {"k": 1, "a": [1, 2], "b": 1, "f": [2]},
    "k2": {"k": 2, "a": [1, 1, 1], "b": 1, "f": [1, 1]},
    # non-unit orders: rule 3 swaps creation orders (module docstring)
    "k2_orders": {"k": 2, "a": [1, 3, 1], "b": 2, "f": [1, 1]},
    # degenerate dimensions: no base, no first fibre, no deep fibre
    "k2_b0": {"k": 2, "a": [1, 1, 1], "b": 0, "f": [0, 1]},
    "k2_f00": {"k": 2, "a": [1, 1, 1], "b": 1, "f": [0, 0]},
    "k2_f10": {"k": 2, "a": [1, 2, 1], "b": 1, "f": [1, 0]},
}

COMMANDS = {
    "space_double": ["space", "double", "--format", "json"],
    "space_triple": ["space", "triple", "--format", "json"],
    "facemap_verify": ["facemap", "verify", "--format", "json"],
    "weights": ["weights", "--format", "json"],
    "export_dot_triple": ["export-dot", "--space", "triple"],
    "compose": ["compose", "-P", "P.json", "-Q", "Q.json"],
    "compose_rejected": ["compose", "-P", "P.json", "-Q", "Qbad.json"],
    "act": ["act", "-P", "P.json", "-I", "I.json"],
    "parametrix": ["parametrix", "-m", "3/2", "--format", "json"],
    "tower_validate": ["tower", "validate", "--format", "json"],
    "export_dot_double": ["export-dot", "--space", "double"],
    # the default Laplacian: exact angle-polynomial entries
    "normal_family": ["normal-family", "--mu", "MU", "--N", "2"],
    # trig modes at a base point with phase 1/3: float entries
    "normal_family_trig": ["normal-family", "-O", "Op.json", "--point",
                           "POINT", "--mu", "MU", "--N", "2"],
    "resolvent_invertible": ["resolvent-check", "--lambda=-1+i", "--N", "2",
                             "--radius", "2"],
    "resolvent_spectrum": ["resolvent-check", "--lambda=1+4pi^2", "--N",
                           "2", "--radius", "2"],
}

# Operator classes and an index set for the calculus reports: complex
# exponents, log powers, empty faces and smooth faces.  Qbad breaks the
# strict integrability of P's right face against its left face.
INPUTS = {
    "P.json": {"order": "1/2", "family": {
        "rf": [["1/2", "0/1", 1]],
        "lf": [["1/1", "0/1", 0], ["1/3", "1/1", 2]],
        "ff_zx": [["0/1", "0/1", 0], ["-1/2", "0/1", 1]],
        "ff_zy": [],
        "ff_z": [["0/1", "0/1", 0], ["3/2", "1/2", 1]]}},
    "Q.json": {"order": "-1", "family": {
        "rf": [["2/1", "0/1", 0], ["1/3", "1/1", 1]],
        "lf": [["1/1", "0/1", 1], ["5/2", "0/1", 3]],
        "ff_zx": [["1/2", "0/1", 0]],
        "ff_zy": [["0/1", "0/1", 0]],
        "ff_z": [["0/1", "0/1", 0], ["1/1", "0/1", 2], ["1/3", "1/1", 0]]}},
    "Qbad.json": {"order": "0", "family": {
        "lf": [["-1/2", "0/1", 0]], "ff_z": [["0/1", "0/1", 0]]}},
    "I.json": {"set": [["1/1", "0/1", 0], ["1/2", "1/1", 1]]},
}


def _operator(cfg) -> dict:
    """A model operator sized to the tower: Laplacian-like top terms, a
    trig potential in the first base and deep-fibre directions, and a
    coefficient with an x power that vanishes at the boundary.  A zero
    dimension drops its directions: an empty I or K, and one mode entry
    carrying both phases when there is a single angle."""
    b, f = cfg["b"], cfg["f"]
    f1, f2 = (f + [0, 0])[:2]
    nm = b + sum(f)
    # depth 0 and 1 reject the file before its shape is read; their K
    # keeps the one entry it was frozen with
    nk = f2 if cfg["k"] == 2 else 1

    def first(n, d):
        return ([n] + [0] * d)[:d]

    def mi(alpha=0, I=0, K=0):
        return {"alpha": alpha, "I": first(I, b), "J": [0] * f1,
                "K": first(K, nk)}

    def modes(y, w):
        out = first(y, nm)
        out[-1] += w
        return out
    return {"terms": [
        dict(mi(alpha=2), coeff={"x_poly": [[0, "1", "0"], [1, "2", "1"]]}),
        dict(mi(K=2)),
        dict(mi(I=1), coeff={"x_poly": [[0, "0", "-1/2"]]}),
        dict(mi(), coeff={"x_poly": [[0, "3", "0"]], "trig": [
            {"modes": modes(1, 1), "re": "1/2", "im": "1/4"},
            {"modes": modes(-1, -1), "re": "1/2", "im": "-1/4"}]})]}


def _tower_args(cfg) -> dict:
    """Base point and conormal parameter sized to the tower's model dims;
    an empty base point means the option is left out."""
    n = cfg["b"] + sum(cfg["f"][:1])
    return {"POINT": ",".join((["1/3"] + ["0"] * n)[:n]),
            "MU": ",".join(["1/2"] + ["-1"] * n)}


DEPTH2_ONLY = ("space_triple", "weights", "export_dot_triple", "compose",
               "compose_rejected", "act", "parametrix")

CASES = [(t, c) for t in TOWERS for c in COMMANDS
         if TOWERS[t]["k"] == 2 or c not in DEPTH2_ONLY]


def _plain(x):
    """JSON form with every set sorted, so the text is deterministic."""
    if isinstance(x, cs.Merge):
        return _plain(x.canonical_key())
    if isinstance(x, cs.Locus):
        return {"faces": _plain(x.faces), "merge": _plain(x.merge),
                "pure": x.pure}
    if isinstance(x, (set, frozenset)):
        return sorted(_plain(v) for v in x)
    if isinstance(x, (tuple, list)):
        return [_plain(v) for v in x]
    if x == float("inf"):
        return "inf"
    return x


def _space_state(S: cs.Space) -> dict:
    return {
        "faces": [[f.name, f.step, f.order, _plain(f.v), _plain(f.merged),
                   _plain(f.center)] for f in S.faces],
        "strata": _plain({frozenset(S._names(m)) for m in S.strata}),
        "diag_meets": _plain([(key, frozenset(S._names(m))) for key, m in
                              zip(cs._diag_keys(S.n_factors, S.levels),
                                  S.diag_meets)]),
        "registry": [[n, _plain(p.locus), _plain(p.order)]
                     for n, p in S.registry],
        "history": [[f.name, _plain(f.center), f.order, f.rank]
                    for f in S.history]}


def _engine_state(tower: str) -> str:
    """One JSON line per face, stratum, meet set, registry entry, step."""
    t = asp.Tower.from_json(TOWERS[tower])
    stage = asp.stage_name(t.k)
    com = asp.commuted_triple_seq(t, stage)
    spaces = {"double": asp.double_space(t).space,
              "symmetric": cs.replay(asp.symmetric_triple_seq(t, stage)),
              "commuted": cs.replay(com)}
    lines = [["commuted_seq", e] for e in seq_to_json(com)]
    for name, S in spaces.items():
        lines += [[name, part, item]
                  for part, items in _space_state(S).items()
                  for item in items]
    return "".join(json.dumps(x, sort_keys=True) + "\n" for x in lines)


def _main(tower: str, command: str, tmp: pathlib.Path, extra=()):
    """(exit code, stdout, stderr) of one golden command."""
    cfg = tmp / f"{tower}.json"
    cfg.write_text(json.dumps(TOWERS[tower]))
    inputs = dict(INPUTS, **{"Op.json": _operator(TOWERS[tower])})
    for name, data in inputs.items():
        (tmp / name).write_text(json.dumps(data))
    subst = _tower_args(TOWERS[tower])
    argv = []
    for a in COMMANDS[command]:
        a = str(tmp / a) if a in inputs else subst.get(a, a)
        if a:
            argv.append(a)
        else:
            argv.pop()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv + ["-c", str(cfg), *extra])
    return code, out.getvalue(), err.getvalue()


def _run(tower: str, command: str, tmp: pathlib.Path) -> str:
    code, out, err = _main(tower, command, tmp)
    return f"exit {code}\n{out}" + (f"stderr: {err}" if err else "")


def _demo(name: str) -> str:
    """A demo's stdout, run in this process as a script."""
    out = io.StringIO()
    with redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"demo_{name}.py"), run_name="__main__")
    return out.getvalue()


@pytest.mark.parametrize("tower,command", CASES,
                         ids=[f"{t}-{c}" for t, c in CASES])
def test_golden(tower, command, tmp_path):
    want = (GOLDEN / f"{tower}__{command}.txt").read_text()
    assert _run(tower, command, tmp_path) == want


@pytest.mark.parametrize("tower,command", CASES,
                         ids=[f"{t}-{c}" for t, c in CASES])
def test_golden_output_file(tower, command, tmp_path):
    # -o takes the whole report, byte for byte, and leaves stdout empty
    report = tmp_path / "report.out"
    code, out, err = _main(tower, command, tmp_path, ["-o", str(report)])
    assert out == ""
    written = report.read_text() if report.exists() else ""
    want = f"exit {code}\n{written}" + (f"stderr: {err}" if err else "")
    assert want == (GOLDEN / f"{tower}__{command}.txt").read_text()


@pytest.mark.parametrize("tower", TOWERS)
def test_golden_engine_state(tower):
    want = (GOLDEN / f"{tower}__engine.jsonl").read_text()
    assert _engine_state(tower) == want


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_golden_demo(name):
    assert _demo(name) == (GOLDEN / f"demo__{name}.txt").read_text()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as d:
        for tower, command in CASES:
            (GOLDEN / f"{tower}__{command}.txt").write_text(
                _run(tower, command, pathlib.Path(d)))
            print(f"wrote {tower}__{command}.txt", file=sys.stderr)
    for tower in TOWERS:
        (GOLDEN / f"{tower}__engine.jsonl").write_text(_engine_state(tower))
        print(f"wrote {tower}__engine.jsonl", file=sys.stderr)
    for name in DEMO_NAMES:
        (GOLDEN / f"demo__{name}.txt").write_text(_demo(name))
        print(f"wrote demo__{name}.txt", file=sys.stderr)

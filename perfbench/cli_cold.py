"""``cli-cold`` workload: one CLI command per fresh interpreter.

A session is a seeded script of 22 commands that covers all eleven
subcommand forms.  Eight of them build the canonical depth-2 triple space
(the *heavy* commands): ``space triple``, ``facemap verify``,
``weights``, an integrable ``compose``, ``parametrix`` and ``export-dot
--space triple`` at depth 2, and an integrable ``compose`` and a
``parametrix`` at depth 0 or 1, which build it before they fail.  The
other fourteen are *light*: every other form once at a depth drawn from
{0, 1, 2} ({0, 1} for the heavy forms; both spaces for ``export-dot``;
both depths for the smaller ``facemap verify``), plus a rejected
``compose``, a ``normal-family`` and an on-spectrum ``resolvent-check``
at depth 2.  The seed draws the towers (orders, dimensions), the light
commands' depths, the arguments and the order of the commands; the
commands that cost seconds are fixed, so session time hardly depends on
which seed is used.
Inputs a documented command rejects or crashes on are kept: depth-0/1
``parametrix``, ``compose``, ``normal-family`` and ``resolvent-check``
raise today and are counted as failed ops.  The one input class left out
is a wrong answer, not a crash: ``space triple`` at depth 2 runs on unit
orders only (see ``_unit_orders``), and the report says so.

Every import and every triple-space build is cold, so per-build
memoisation shows here and a cache kept within one process does not.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import common

FORMATS = ("text", "json")
CHILD = str(common.BENCH_DIR / "child.py")
CMD_TIMEOUT = 170


class Cmd:
    """One command of the script and, once run, its outcome."""

    def __init__(self, form, k, argv, expect, check=None, heavy=False,
                 tower=None):
        self.form, self.k, self.argv, self.tower = form, k, argv, tower
        self.expect = expect           # documented exit code
        self.check = check             # stdout oracle for that exit code
        self.heavy = heavy
        self.out = self.err = ""
        self.code = None
        self.crashed = False
        self.wall_s = 0.0
        self.meta = {}


# ---------------------------------------------------------------------------
# inputs

def _tower(rng, k):
    return {"k": k, "a": [1] + [rng.randint(1, 3) for _ in range(k)],
            "b": rng.randint(0, 2), "f": [rng.randint(0, 2) for _ in range(k)]}


def _unit_orders(tower):
    """The tower with every order 1.

    On orders other than 1 the commuted triple construction of ``space
    triple`` gives two front faces (``G_{1,y}`` and ``F_{1,z}``) each
    other's blowup order, so the report says the constructions are not
    isomorphic; that wrong answer would make every run incorrect.  The
    other triple-space commands keep the drawn orders.
    """
    return dict(tower, a=[1] * len(tower["a"]))


def _rand_set(rng, lo, hi):
    n = rng.randint(1, 3)
    return [[str(Fraction(rng.randint(lo, hi), rng.choice([1, 2]))), "0",
             rng.randint(0, 2)] for _ in range(n)]


def _class(rng, lo, hi, **fixed):
    fam = {f: _rand_set(rng, lo, hi) if rng.random() < 0.7 else []
           for f in ("rf", "lf", "ff_zx", "ff_zy", "ff_z")}
    fam.update(fixed)
    return {"order": str(Fraction(rng.randint(-2, 2))), "family": fam}


class Script:
    """Writes the inputs of one session and builds its command list."""

    def __init__(self, seed: int, index: int, workdir: Path):
        self.rng = random.Random(seed * 1_000_003 + index)
        self.dir = workdir / f"s{index}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.n = 0
        self.cmds = []

    def _file(self, data) -> str:
        self.n += 1
        p = self.dir / f"in{self.n}.json"
        p.write_text(json.dumps(data))
        return str(p)

    def _add(self, form, k, argv, expect, check=None, heavy=False,
             tower=None):
        tower = tower or _tower(self.rng, k)
        argv = argv + ["-c", self._file(tower)]
        self.cmds.append(Cmd(form, k, argv, expect, check, heavy, tower))

    def build(self) -> list:
        rng = self.rng
        fmt = lambda: ["--format", rng.choice(FORMATS)]   # noqa: E731
        # heavy: build the depth-2 triple space
        self._add("space-triple", 2, ["space", "triple"] + fmt(), 0,
                  _check_triple, True, tower=_unit_orders(_tower(rng, 2)))
        self._add("facemap-verify", 2, ["facemap", "verify"] + fmt(), 0,
                  _check_facemap, True)
        self._add("weights", 2, ["weights", "--seed",
                                 str(rng.randint(0, 999)), "--sweep", "25"]
                  + fmt(), 0, _check_weights, True)
        self._compose(2, integrable=True, heavy=True)
        m = str(Fraction(rng.randint(1, 6), rng.choice([1, 2])))
        self._add("parametrix", 2, ["parametrix", "-m", m] + fmt(), 0,
                  _check_parametrix, True)
        self._add("export-dot", 2, ["export-dot", "--space", "triple"], 0,
                  _check_dot, True)
        # light: every form at a drawn depth, heavy forms below depth 2
        low = lambda: rng.randint(0, 1)                   # noqa: E731
        anyk = lambda: rng.randint(0, 2)                  # noqa: E731
        self._add("tower-validate", anyk(), ["tower", "validate"] + fmt(), 0,
                  _check_validate)
        self._add("space-double", anyk(), ["space", "double", "--format",
                                           rng.choice(FORMATS + ("dot",))],
                  0, _check_double)
        self._add("space-triple", low(), ["space", "triple"], 1,
                  _err("needs tower depth 2"))
        for k in (0, 1):        # 0.4 s and 1 s: both, for a fixed cost
            self._add("facemap-verify", k, ["facemap", "verify"], 0,
                      _check_facemap)
        self._add("weights", low(), ["weights"], 1,
                  _err("need tower depth 2"))
        self._compose(low(), integrable=True)
        self._compose(2, integrable=False)
        self._act(anyk())
        self._add("parametrix", low(), ["parametrix"], 1, heavy=True)
        self._normal_family(anyk(), operator=False)
        self._normal_family(2, operator=rng.random() < 0.5)
        self._resolvent(anyk(), on_spectrum=False)
        self._resolvent(2, on_spectrum=True)
        self._add("export-dot", low(), ["export-dot", "--space", "triple"],
                  1, _err("needs tower depth 2"))
        self._add("export-dot", anyk(), ["export-dot", "--space", "double"],
                  0, _check_dot)
        rng.shuffle(self.cmds)
        return self.cmds

    def _compose(self, k, integrable, heavy=False):
        rng = self.rng
        if integrable:
            P, Q = _class(rng, 1, 5), _class(rng, 1, 5)
        else:
            P = _class(rng, -3, 3, rf=_rand_set(rng, -4, 0))
            Q = _class(rng, -3, 3, lf=_rand_set(rng, -4, 0))
        argv = ["compose", "-P", self._file(P), "-Q", self._file(Q)]
        if k < 2:       # builds the triple space, then needs depth 2
            self._add("compose", k, argv, 1, heavy=True)
        elif integrable:
            self._add("compose", k, argv, 0, _check_compose, heavy)
        else:
            self._add("compose", k, argv, 1, _err("not integrable"))

    def _act(self, k):
        rng = self.rng
        P = _class(rng, -2, 4)
        I = _rand_set(rng, -2, 4)
        argv = ["act", "-P", self._file(P), "-I", self._file({"set": I})]
        self._add("act", k, argv, None, _act_checker(P, I))

    def _normal_family(self, k, operator):
        rng = self.rng
        tower = _tower(rng, k)
        N = rng.choice((4, 8))
        argv = ["normal-family", "--N", str(N)]
        if k < 2:
            self._add("normal-family", k, argv, 1, tower=tower)
            return
        nmu = 1 + tower["b"] + tower["f"][0]
        mu = [str(Fraction(rng.randint(-6, 6), 2)) for _ in range(nmu)]
        argv += ["--mu=" + ",".join(mu)]
        if operator and tower["f"][1]:
            argv += ["-O", self._file(_operator_spec(rng, tower))]
            check = _nf_checker(tower, N, None)
        else:
            check = _nf_checker(tower, N, [Fraction(m) for m in mu])
        self._add("normal-family", k, argv, 0, check, tower=tower)

    def _resolvent(self, k, on_spectrum):
        rng = self.rng
        tower = _tower(rng, k)
        radius, N = rng.choice((1, 2)), 4
        dim = 1 + tower["b"] + (tower["f"][0] if k else 0)
        # a radius-2 grid in more dimensions takes up to 60 MB, so which
        # tower the seed drew would set the children's peak memory
        if dim > 3:
            radius = 1
        argv = ["resolvent-check", "--N", str(N), "--radius", str(radius)]
        if k < 2:
            self._add("resolvent-check", k, argv + ["--lambda=-1"], 1,
                      tower=tower)
            return
        if on_spectrum:
            mu2 = sum(Fraction(rng.randint(-2 * radius, 2 * radius), 2) ** 2
                      for _ in range(dim))
            k2 = sum(rng.randint(-N, N) ** 2 for _ in range(tower["f"][1]))
            lam = f"{mu2}+{4 * k2}pi^2"
            want = ("rejected: spectral parameter on the model spectrum; "
                    f"witness |mu|^2 = {mu2}, |k|^2 = {k2}\n")
            self._add("resolvent-check", k, argv + [f"--lambda={lam}"], 1,
                      _equals(want), tower=tower)
            return
        if rng.random() < 0.5:
            re0 = -Fraction(rng.randint(1, 8), 2)
            lam, margin = f"{re0}", abs(float(re0))
        else:
            re0 = Fraction(rng.randint(0, 8), 2)
            im = rng.choice((-1, 1)) * rng.randint(1, 4)
            lam, margin = f"{re0}{im:+d}i", float(abs(im))
        self._add("resolvent-check", k, argv + [f"--lambda={lam}"], 0,
                  _equals(f"fully elliptic; margin {margin:.12g}\n"),
                  tower=tower)


def _operator_spec(rng, tower):
    """w-dependent operator in the CLI's term format."""
    b, (f1, f2) = tower["b"], tower["f"]
    nm = b + f1 + f2
    trig = [0] * nm
    trig[nm - 1] = 1
    K2 = [0] * f2
    K2[0] = 2
    return {"terms": [
        {"alpha": 2, "I": [0] * b, "J": [0] * f1, "K": [0] * f2},
        {"alpha": 0, "I": [0] * b, "J": [0] * f1, "K": K2},
        {"alpha": 0, "I": [0] * b, "J": [0] * f1, "K": [0] * f2,
         "coeff": {"x_poly": [[0, str(rng.randint(1, 4)), "0"]],
                   "trig": [{"modes": trig, "re": "1/2", "im": "0"}]}}]}


# ---------------------------------------------------------------------------
# oracles: each returns an error string, or "" when the output is right

def _json(out):
    try:
        return json.loads(out), ""
    except ValueError:
        return None, "stdout is not JSON"


def _err(fragment):
    def check(cmd):
        return "" if fragment in cmd.err else f"stderr lacks {fragment!r}"
    return check


def _equals(want):
    def check(cmd):
        return "" if cmd.out == want else f"stdout {cmd.out!r} != {want!r}"
    return check


def _is_json(cmd):
    return "--format" in cmd.argv and \
        cmd.argv[cmd.argv.index("--format") + 1] == "json"


def _check_validate(cmd):
    t = cmd.tower
    dim = 1 + t["b"] + sum(t["f"])
    if _is_json(cmd):
        data, err = _json(cmd.out)
        want = {"k": t["k"], "a": t["a"], "b": t["b"], "f": t["f"],
                "dim": dim, "valid": True}
        return err or ("" if data == want else "report differs")
    want = (f"tower depth {t['k']}, orders {tuple(t['a'])}, dims "
            f"(b={t['b']}, f={tuple(t['f'])}), total dim {dim}: valid\n")
    return _equals(want)(cmd)


def _check_double(cmd):
    fmt = cmd.argv[cmd.argv.index("--format") + 1]
    if fmt == "dot":
        return _check_dot(cmd)
    if fmt == "json":
        data, err = _json(cmd.out)
        if err:
            return err
        ok = data["b_fibrations"] and \
            len(data["e_left"]) == len(data["faces"]) == len(data["e_right"])
        return "" if ok else "projections are not b-fibrations"
    return "" if "projections are b-fibrations: True" in cmd.out \
        else "projections are not b-fibrations"


def _check_triple(cmd):
    if _is_json(cmd):
        data, err = _json(cmd.out)
        ok = not err and all(data["projections_b_fibrations"]) \
            and data["constructions_isomorphic"]
    else:
        ok = ("projections are b-fibrations: True" in cmd.out and
              "constructions isomorphic: True" in cmd.out)
    return "" if ok else "not isomorphic b-fibrations"


def _check_facemap(cmd):
    n = 3 * (cmd.k + 1)
    if _is_json(cmd):
        data, err = _json(cmd.out)
        ok = not err and data["tables"] == n and not data["mismatches"]
    else:
        ok = cmd.out.startswith(f"{n} tables, 0 mismatches\n")
    return "" if ok else "face tables differ from the references"


def _check_weights(cmd):
    if _is_json(cmd):
        data, err = _json(cmd.out)
        ok = not err and data["composition_sweep"]["failures"] == 0
    else:
        ok = " 0 closed-form mismatches" in cmd.out
    return "" if ok else "weight sweep reports failures"


def _check_parametrix(cmd):
    if _is_json(cmd):
        data, err = _json(cmd.out)
        ok = not err and data["verified"] is True
    else:
        ok = cmd.out.split("\n", 1)[0].endswith(": verified")
    return "" if ok else "ledger not verified"


def _check_dot(cmd):
    return "" if cmd.out.startswith("graph") and cmd.out.rstrip()\
        .endswith("}") else "not a dot graph"


def _check_compose(cmd):
    from qhcalc import index_algebra as ia
    data, err = _json(cmd.out)
    if err:
        return err
    got = ia.indexset_from_json(data["family"]["ff_z"])
    want = ia.indexset_from_json(data["ff_z_closed_form"])
    return "" if ia.windowed_eq(got, want, Fraction(12), 8) \
        else "ff_z differs from the closed form"


def _act_checker(P, I):
    def inf(s):
        return min((Fraction(g[0]) for g in s), default=None)

    rf = P["family"]["rf"]
    integrable = not rf or not I or inf(rf) + inf(I) > 0

    def check(cmd):
        from qhcalc import index_algebra as ia
        if not integrable:
            return "" if cmd.code == 1 and "not integrable" in cmd.err \
                else "non-integrable input accepted"
        if cmd.code != 0:
            return "integrable input rejected"
        data, err = _json(cmd.out)
        if err:
            return err
        win = (Fraction(12), 8)
        got = ia.closure_window(ia.indexset_from_json(data["set"]), *win)
        J = {f: ia.indexset_from_json(v) for f, v in P["family"].items()}
        Iset = ia.indexset_from_json(I)
        pieces = [J["lf"]] + [ia.add(J[f], Iset)
                              for f in ("ff_zx", "ff_zy", "ff_z")]
        ok = all(ia.closure_window(p, *win) <= got for p in pieces)
        return "" if ok else "image misses a contributing term"
    return check


def _nf_checker(tower, N, mu):
    f2 = tower["f"][1]

    def check(cmd):
        data, err = _json(cmd.out)
        if err:
            return err
        if data["dim"] != (2 * N + 1) ** f2:
            return "wrong mode count"
        if mu is None:
            return "" if data["exact"] and not data["diagonal"] \
                else "w-dependent family should couple modes"
        if not (data["exact"] and data["diagonal"]):
            return "Laplacian family should be exact and diagonal"
        mu2 = float(sum(m * m for m in mu))
        for key, ent in data["entries"].items():
            r, c = key.split("|")
            k2 = sum(q * q for q in json.loads(c))
            got = sum(float(Fraction(re)) * (2 * math.pi) ** int(p)
                      for p, (re, im) in ent.items())
            if r != c or not math.isclose(got, mu2 + 4 * math.pi ** 2 * k2,
                                          rel_tol=1e-12, abs_tol=1e-12):
                return f"entry {key} differs from |mu|^2 + 4 pi^2 |k|^2"
        if mu2 and len(data["entries"]) != data["dim"]:
            return "missing diagonal entries"
        return ""
    return check


# ---------------------------------------------------------------------------
# running

def run_child(cmd: Cmd, workdir: Path, trace: bool, env: dict) -> None:
    meta = workdir / "meta.json"
    argv = [sys.executable, CHILD, "cli", str(meta)] + \
        (["--trace"] if trace else []) + ["--"] + cmd.argv
    t0 = perf_counter()
    p = subprocess.run(argv, env=env, cwd=str(workdir), capture_output=True,
                       text=True, timeout=CMD_TIMEOUT)
    cmd.wall_s = perf_counter() - t0
    cmd.out, cmd.err, cmd.code = p.stdout, p.stderr, p.returncode
    cmd.meta = json.loads(meta.read_text()) if meta.exists() else {}
    meta.unlink(missing_ok=True)
    cmd.crashed = "Traceback (most recent call last)" in p.stderr


def replay_in_process(cmd: Cmd):
    """Same argv through ``qhcalc.cli.main`` in this (warm) process."""
    import qhcalc.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = qhcalc.cli.main(cmd.argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:
            code = f"raised {type(e).__name__}"
    return out.getvalue(), code


def judge(cmd: Cmd, run, other=None) -> None:
    """Count one op: crash, undocumented code, wrong exit or bad output.

    ``other`` is a second run of the same argv as (stdout, exit code);
    the stdout must be byte-identical to it.
    """
    form = f"{cmd.form}{' (heavy)' if cmd.heavy else ''}"
    if cmd.crashed:
        last = cmd.err.strip().splitlines()[-1] if cmd.err.strip() else ""
        run.op(False, form, cmd.k, f"traceback: {last.split(':')[0]}")
        return
    if cmd.code not in (0, 1, 2):
        run.op(False, form, cmd.k, f"undocumented exit code {cmd.code}")
        return
    why = ""
    if cmd.expect is not None and cmd.code != cmd.expect:
        why = f"exit {cmd.code}, documented outcome is {cmd.expect}"
    elif cmd.check is not None:
        why = cmd.check(cmd)
    if not why and other is not None and other != (cmd.out, cmd.code):
        why = "stdout or exit code differs between two runs of one seed"
    if why:
        why += f" (argv {' '.join(cmd.argv[:-2])}, tower {cmd.tower})"
    run.op(not why, form, cmd.k, why, wrong=bool(why))


def run_session(seed, index, workdir, trace, env, rec) -> list:
    """Run one script; the session's time is the sum of its commands'."""
    cmds = Script(seed, index, workdir).build()
    rec.start()
    for cmd in cmds:
        run_child(cmd, workdir, trace, env)
        rec.add(cmd.heavy, cmd.wall_s * 1e3)
    rec.close(sum(cmd.wall_s for cmd in cmds))
    return cmds


def verify_paths(cmds) -> None:
    for cmd in cmds:
        if cmd.meta.get("qhcalc_file"):
            common.verify_qhcalc_file(cmd.meta["qhcalc_file"])


def probe(workdir: Path, env) -> None:
    """Set-up: one cold interpreter imports qhcalc; its path is checked."""
    cmd = Cmd("probe", None, [], 2)
    run_child(cmd, workdir, False, env)
    if not cmd.meta:
        raise common.SetupError(f"child failed to start: {cmd.err[-400:]}")
    common.verify_qhcalc_file(cmd.meta["qhcalc_file"])


def main(run, seed: int, seconds: float, trace: bool) -> None:
    env = common.child_env()
    common.WORK_DIR.mkdir(exist_ok=True)
    workdir = common.WORK_DIR / f"cli-{seed}-{os.getpid()}"
    try:
        setups = []
        for i in range(3):
            t0 = perf_counter()
            Script(seed, 0, workdir / f"setup{i}").build()
            probe(workdir, env)
            setups.append(perf_counter() - t0)
        rec = common.Sessions()
        sessions = []
        t0 = perf_counter()
        while not sessions or (not trace and perf_counter() - t0 < seconds):
            sessions.append(run_session(seed, len(sessions), workdir, False,
                                        env, rec))
            verify_paths(sessions[-1])
        if trace:
            _traced(run, seed, workdir, env, sessions[0])
        else:
            # a second, warm run of each light command; heavy outputs are
            # compared across two cold runs in the traced run
            for cmds in sessions:
                for cmd in cmds:
                    judge(cmd, run, None if cmd.heavy or cmd.crashed
                          else replay_in_process(cmd))
        _report(run, sessions)
        if not trace:
            run.metric("setup_s", common.median(setups), "s")
            rec.metrics(run)
            run.metric("peak_rss_mb",
                       common.peak_rss_mb(resource.RUSAGE_CHILDREN), "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _traced(run, seed, workdir, env, base) -> None:
    """Traced rerun of the first session; its stdout must match ``base``."""
    import spans
    traced_rec = common.Sessions()
    traced = run_session(seed, 0, workdir, True, env, traced_rec)
    verify_paths(traced)
    for cmd, ref in zip(traced, base):
        judge(cmd, run, (ref.out, ref.code))
    tr = spans.Tracer()
    for cmd in traced:
        if cmd.meta.get("trace"):
            tr.merge(cmd.meta["trace"])
    main_s = {}
    for cmd in base:
        if cmd.meta:
            main_s[cmd.form] = main_s.get(cmd.form, 0.0) + cmd.meta["main_s"]
    imports = [c.meta["import_s"] for c in base if c.meta]
    spans.layer_metrics(run, tr, common.median(imports), main_s,
                        sum(c.wall_s for c in base),
                        sum(c.wall_s for c in traced))


def _report(run, sessions) -> None:
    mix = {}
    for c in sessions[0]:
        key = f"{c.form}{'*' if c.heavy else ''}@k{c.k}"
        mix[key] = mix.get(key, 0) + 1
    run.note("mix.commands_per_session", len(sessions[0]))
    run.note("mix.form_depth (first session, * = heavy)", mix)
    run.note("sessions", len(sessions))
    run.note("excluded inputs", "space triple at depth 2 runs on unit "
             "orders only: on other orders it reports the symmetric and "
             "commuted constructions as not isomorphic")
    for heavy, name in ((True, "heavy_cmd_p50_s"), (False, "light_cmd_p50_s")):
        raw = [c.wall_s for s in sessions for c in s if c.heavy == heavy]
        run.note(name, round(common.median(raw), 4))

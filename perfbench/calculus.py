"""``calculus`` workload: warm operator-class calculus in one process.

Set-up builds ``triple_projection_tables()`` (the cold triple-space
build).  Then one client runs a seeded stream of ops over the pool of
depth-2 towers with a1, a2 in 1..3 and b, f1, f2 in 0..3 (576 towers):
``compose`` of two random classes (family generator of acceptance
criterion 4) with the ff_z closed-form check, plus ``act``, ``adjoint``
and an occasional ``parametrix_ledger``.  The corner engine runs only in
set-up; ``index_algebra``, ``op_calculus`` and ``densities`` do the work.
About two in five random pairs fail the cheap integrability pre-check,
so both the early exit and the full pullback/pushforward pipeline run.

Every ``FRESH_EVERY``-th op runs on a tower not seen before in the
process and the rest on towers already seen, so the share of first calls
(``triple_weights`` of a new tower costs about 15 ms) is the same in every
session instead of falling as the run goes on.  Ops are grouped in
sessions of ``SESSION_OPS``; a run repeats sessions until its time is up,
and a traced run does ``TRACE_SESSIONS`` of them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

import common

FRESH_EVERY = 8
SETUP_SAMPLES = 2       # each is a cold triple-space build of several seconds
TRACE_SESSIONS = 4
WINDOW = (Fraction(12), 8)          # closed-form comparison window
# op kind -> ops of that kind in a session, shuffled by the seed
MIX = (("compose", 120), ("act", 15), ("adjoint", 12), ("ledger", 3))
SESSION_OPS = sum(n for _, n in MIX)


class State:
    def __init__(self, seed: int):
        from qhcalc.a_spaces import Tower
        self.rng = random.Random(seed)
        self.pool = [Tower(2, (1, a1, a2), b, (f1, f2))
                     for a1 in range(1, 4) for a2 in range(1, 4)
                     for b in range(4) for f1 in range(4) for f2 in range(4)]
        self.fresh = self.rng.sample(self.pool, len(self.pool))
        self.seen = []
        self.ops = 0
        self.ops_seen_tower = 0
        self.kinds = {k: 0 for k, _ in MIX}
        # heavy: ops past the integrability pre-check that transform index
        # sets (compose, act, ledger); light: rejections and adjoints
        self.rec = common.Sessions()
        self.compose_ok_ms = []
        self.early_rejects = 0
        self.late_rejects = 0


def setup(seed: int) -> State:
    from qhcalc import a_spaces as asp
    asp.triple_projection_tables()
    return State(seed)


def _rand_set(rng):
    from qhcalc import index_algebra as ia
    n = rng.randint(0, 3)
    return ia.normalize([
        ia.term(Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3])), 0,
                rng.randint(0, 3)) for _ in range(n)])


def _rand_class(rng, t):
    from qhcalc import op_calculus as oc
    return oc.op_class(t, Fraction(rng.randint(-4, 4), rng.choice([1, 2])),
                       **{f: _rand_set(rng) for f in oc.DOUBLE_FACES})


def _integrable(G, H) -> bool:
    """The strict condition inf Re(G + H) > 0, from the generators."""
    if G.is_empty or H.is_empty:
        return True
    return min(g.z.re for g in G.generators) \
        + min(h.z.re for h in H.generators) > 0


def _window(G):
    from qhcalc import index_algebra as ia
    return ia.closure_window(G, *WINDOW)


def _op_compose(st: State, run, t):
    from qhcalc import index_algebra as ia
    from qhcalc import op_calculus as oc
    P, Q = _rand_class(st.rng, t), _rand_class(st.rng, t)
    t0 = perf_counter()
    try:
        R = oc.compose(P, Q)
    except oc.NonIntegrable as e:
        ms = (perf_counter() - t0) * 1e3
        st.rec.add(False, ms)
        early = e.faces == ("rf/lf",)
        if early:
            st.early_rejects += 1
        else:
            st.late_rejects += 1
        # the pre-check must reject exactly the pairs that break it
        ok = early != _integrable(P.family["rf"], Q.family["lf"])
        run.op(ok, "compose", 2, "rejection disagrees with inf Re(rf+lf)",
               wrong=not ok)
        return
    ms = (perf_counter() - t0) * 1e3
    st.rec.add(True, ms)
    st.compose_ok_ms.append(ms)
    ok = _integrable(P.family["rf"], Q.family["lf"]) and ia.windowed_eq(
        R.family["ff_z"], oc.ffz_closed_form(P, Q), *WINDOW)
    run.op(ok, "compose", 2, "ff_z differs from the closed form", wrong=not ok)


def _op_act(st: State, run, t):
    from qhcalc import index_algebra as ia
    from qhcalc import op_calculus as oc
    P, I = _rand_class(st.rng, t), _rand_set(st.rng)
    t0 = perf_counter()
    try:
        out = oc.act(P, I)
    except oc.NonIntegrable:
        st.rec.add(False, (perf_counter() - t0) * 1e3)
        ok = not _integrable(P.family["rf"], I)
        run.op(ok, "act", 2, "rejected an integrable input", wrong=not ok)
        return
    st.rec.add(True, (perf_counter() - t0) * 1e3)
    J = P.family
    got = _window(out)
    pieces = [J["lf"]] + [ia.add(J[f], I) for f in ("ff_zx", "ff_zy", "ff_z")]
    ok = _integrable(J["rf"], I) and all(_window(p) <= got for p in pieces)
    run.op(ok, "act", 2, "image misses a contributing term", wrong=not ok)


def _op_adjoint(st: State, run, t):
    from qhcalc import op_calculus as oc
    P = _rand_class(st.rng, t)
    t0 = perf_counter()
    A = oc.adjoint(P)
    st.rec.add(False, (perf_counter() - t0) * 1e3)
    swap = {"rf": "lf", "lf": "rf"}
    ok = A.order == P.order and all(
        A.family[f] == P.family[swap.get(f, f)] for f in oc.DOUBLE_FACES)
    run.op(ok, "adjoint", 2, "faces not swapped", wrong=not ok)


def _op_ledger(st: State, run, t):
    from qhcalc import op_calculus as oc
    m = Fraction(st.rng.randint(1, 4), st.rng.choice([1, 2]))
    t0 = perf_counter()
    led = oc.parametrix_ledger(t, m)
    st.rec.add(True, (perf_counter() - t0) * 1e3)
    ok = led.verify() and len(led.steps) == 5
    run.op(ok, "parametrix_ledger", 2, "ledger does not verify", wrong=not ok)


OPS = {"compose": _op_compose, "act": _op_act, "adjoint": _op_adjoint,
       "ledger": _op_ledger}


def session(st: State, run) -> None:
    schedule = [k for k, n in MIX for _ in range(n)]
    st.rng.shuffle(schedule)
    st.rec.start()
    for kind in schedule:
        if st.ops % FRESH_EVERY and st.seen or not st.fresh:
            t = st.rng.choice(st.seen)
            st.ops_seen_tower += 1
        else:
            t = st.fresh.pop()
            st.seen.append(t)
        st.ops += 1
        st.kinds[kind] += 1
        OPS[kind](st, run, t)
    st.rec.end()


def report(st: State, run, wall_s: float) -> None:
    """The workload's own figures and its mix, as report lines."""
    composes = st.kinds["compose"]
    run.note("mix.ops", st.ops)
    run.note("mix.kinds", st.kinds)
    run.note("mix.tower_seen_share", round(st.ops_seen_tower / st.ops, 4))
    run.note("mix.compose_rejected_share",
             round((st.early_rejects + st.late_rejects) / composes, 4)
             if composes else 0.0)
    run.note("mix.compose_rejected_early_late",
             [st.early_rejects, st.late_rejects])
    ok = st.compose_ok_ms
    figures = {
        "compose_p50_ms": common.percentile(ok, 50),
        "compose_p99_ms": common.percentile(ok, 99),
        "compose_samples": len(ok),
        "ops_per_s": st.ops / wall_s,
    }
    for k, v in figures.items():
        run.note(k, round(v, 6))

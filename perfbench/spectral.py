"""``spectral`` workload: model operators and spectral checks in one process.

Towers are depth 2 with f2 in {1, 2} and a conormal grid of dimension
1 + b + f1 in {2, 3}.  Each session visits the four (grid dimension, f2)
strata once, so every session has the same shape, and runs on each:

* ``fully_elliptic_check`` of a w-dependent operator (model Laplacian
  plus a real cos potential in one deep-fibre angle) on a small grid:
  exact assembly of every grid point, then an SVD;
* ``resolvent_model_check`` of the Laplacian on the default grid (the
  vectorised path) at a negative, a complex and an on-spectrum parameter;
* ``normal_family_matrix`` at N=8 of the Laplacian and of the operator;

plus one ``multiplicativity_check`` of two random w-only operators.
``model_symbols`` and numpy do all the work; neither the corner engine
nor the index algebra runs.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from time import perf_counter

import common

STRATA = ((2, 1), (2, 2), (3, 1), (3, 2))       # (grid dimension, f2)
BASES = {2: ((1, 0), (0, 1)), 3: ((1, 1), (2, 0), (0, 2))}   # (b, f1)
SMALL_GRID = (Fraction(1), Fraction(1, 2), 2)   # radius, step, N
DEFAULT_GRID = (Fraction(10), Fraction(1, 2), 8)
TRACE_SESSIONS = 2
SETUP_SAMPLES = 3


class State:
    def __init__(self, seed: int):
        from qhcalc import model_symbols as ms
        from qhcalc.a_spaces import Tower
        self.rng = random.Random(seed)
        self.pool = {}
        self.laplacian = {}
        for dim, f2 in STRATA:
            towers = [Tower(2, (1, a1, a2), b, (f1, f2))
                      for b, f1 in BASES[dim]
                      for a1 in range(1, 4) for a2 in range(1, 4)]
            self.pool[(dim, f2)] = towers
            for t in towers:
                self.laplacian[t] = ms.model_laplacian(t)
        # heavy: certificate checks (fully elliptic, resolvent); light:
        # normal-family matrices and the multiplicativity check
        self.rec = common.Sessions()
        self.check_ms = []
        self.grid_points = 0
        self.grid_s = 0.0
        self.ops = 0
        self.kinds = {}


def setup(seed: int) -> State:
    return State(seed)


def _zero_index(t):
    return (0, (0,) * t.b, (0,) * t.f[0], (0,) * t.f[1])


def _potential_op(st: State, t):
    """Laplacian + c cos(2 pi w_j): w-dependent, Hermitian fibre family."""
    from qhcalc import index_algebra as ia
    from qhcalc import model_symbols as ms
    c = Fraction(st.rng.randint(1, 4), 4)
    j = t.b + t.f[0] + st.rng.randrange(t.f[1])
    nm = t.b + sum(t.f)
    plus = tuple(1 if i == j else 0 for i in range(nm))
    minus = tuple(-m for m in plus)
    pot = ms.Coeff({(0, plus, 0): ia.cx(c / 2), (0, minus, 0): ia.cx(c / 2)})
    terms = dict(st.laplacian[t].terms)
    terms[_zero_index(t)] = pot
    return ms.make_op(t, terms), c


def _rand_op(rng, t):
    """Random w-only operator of order <= 2 (acceptance criterion 9)."""
    from qhcalc import index_algebra as ia
    from qhcalc import model_symbols as ms
    nm = t.b + sum(t.f)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        parts = [0, 0, 0, 0]
        for _ in range(rng.randint(0, 2)):
            parts[rng.randint(0, 3)] += 1
        dims = (t.b, t.f[0], t.f[1])
        mu = (parts[0],) + tuple(
            tuple([parts[i + 1]] + [0] * (d - 1)) if d else ()
            for i, d in enumerate(dims))
        if any(parts[i + 1] and not d for i, d in enumerate(dims)):
            continue
        modes = [0] * nm
        if rng.random() < 0.5:
            modes[nm - 1] = rng.randint(-1, 1)
        c = ms.Coeff({(rng.randint(0, 1), tuple(modes), 0):
                      ia.cx(Fraction(rng.randint(-3, 3), rng.choice([1, 2])),
                            Fraction(rng.randint(-2, 2)))})
        if not c.is_zero():
            terms[mu] = terms.get(mu, ms.Coeff()) + c
    if not terms:
        terms = {_zero_index(t): ms.coeff_const(t, 1)}
    return ms.make_op(t, terms)


def _grid_size(dim, radius, step):
    return (2 * int(radius / step) + 1) ** dim


def _timed_check(st: State, points: int, fn, *args, heavy=True, **kwargs):
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    dt = perf_counter() - t0
    st.rec.add(heavy, dt * 1e3)
    st.check_ms.append(dt * 1e3)
    st.grid_points += points
    st.grid_s += dt
    return out


def _op_elliptic(st: State, run, t, dim):
    import numpy as np
    from qhcalc import model_symbols as ms
    P, c = _potential_op(st, t)
    lam = -Fraction(st.rng.randint(3, 6), 2)
    radius, step, N = SMALL_GRID
    cert = _timed_check(st, _grid_size(dim, radius, step),
                        ms.fully_elliptic_check,
                        P, lam_re0=lam, N=N, radius=radius, step=step)
    # replay the certificate at its witness point; Weyl's bound for the
    # potential gives the floor
    mu = tuple(Fraction(x) for x in cert["witness"]["mu"])
    M = ms.normal_family_matrix(P, (Fraction(0),) * (dim - 1), mu, N)
    A = M.to_array() - float(lam) * np.eye(M.dim())
    sv = float(np.linalg.svd(A, compute_uv=False)[-1])
    floor = float(-lam - c)
    ok = (cert["fully_elliptic"] and cert["symbol_elliptic"]
          and math.isclose(sv, cert["min_singular_value"], rel_tol=1e-9)
          and cert["min_singular_value"] >= floor - 1e-9)
    run.op(ok, "fully_elliptic_check", 2, "certificate does not replay",
           wrong=not ok)


def _op_resolvent(st: State, run, t, dim, kind: str):
    from qhcalc import model_symbols as ms
    rng = st.rng
    radius, step, N = DEFAULT_GRID
    n = int(radius / step)
    on_spectrum = kind == "on"
    if on_spectrum:
        mu = [rng.randint(-n, n) * step for _ in range(dim)]
        k = [rng.randint(-N, N) for _ in range(t.f[1])]
        re0, re2, im = sum(m * m for m in mu), Fraction(4 * sum(
            x * x for x in k)), Fraction(0)
    elif kind == "negative":
        re0, re2, im = -Fraction(rng.randint(1, 8), 2), Fraction(0), \
            Fraction(0)
    else:
        re0, re2 = Fraction(rng.randint(0, 16), 2), Fraction(0)
        im = Fraction(rng.choice([-1, 1]) * rng.randint(1, 8), 2)
    r = _timed_check(st, _grid_size(dim, radius, step),
                     ms.resolvent_model_check,
                     t, re0, re2, im, N=N, radius=radius, step=step)
    ref = ms.laplacian_spectrum_min_distance(t, re0, re2, im, N, radius, step)
    if on_spectrum:
        want = {"mu_norm_sq": str(re0), "k_norm_sq": str(re2 / 4)}
        ok = not r["invertible"] and r["witness"] == want
        why = "on-spectrum parameter not rejected with its witness"
    else:
        lam = complex(float(re0), float(im))
        margin = abs(im) if re0 >= 0 else abs(lam)
        ok = (r["invertible"] and math.isclose(r["margin"], margin)
              and r["min_distance"] == ref["min_distance"]
              and r["min_distance"] >= margin - 1e-12)
        if im == 0:     # eig = 0 is on the grid: the distance is |lam|
            ok = ok and math.isclose(r["min_distance"], abs(lam))
        why = "margin disagrees with the spectrum distance"
    run.op(ok, "resolvent_model_check", 2, why, wrong=not ok)


def _op_matrix(st: State, run, t, dim, laplacian: bool):
    import numpy as np
    from qhcalc import model_symbols as ms
    rng = st.rng
    N = 8
    point = (Fraction(0),) * (dim - 1)
    mu = tuple(Fraction(rng.randint(-6, 6), 2) for _ in range(dim))
    P = st.laplacian[t] if laplacian else _potential_op(st, t)[0]
    t0 = perf_counter()
    M = ms.normal_family_matrix(P, point, mu, N)
    st.rec.add(False, (perf_counter() - t0) * 1e3)
    A = M.to_array()
    ok = M.dim() == (2 * N + 1) ** t.f[1]
    if laplacian:
        want = [float(sum(m * m for m in mu)) + (2 * math.pi) ** 2
                * sum(q * q for q in k) for k in M.modes]
        ok = ok and M.exact and M.is_diagonal() and np.allclose(
            np.diag(A), want, rtol=1e-12, atol=1e-12)
    else:
        ok = ok and np.allclose(A, A.conj().T, rtol=0, atol=1e-12)
    run.op(ok, "normal_family_matrix", 2, "matrix differs from the model",
           wrong=not ok)


def _op_multiplicative(st: State, run):
    from qhcalc import model_symbols as ms
    rng = st.rng
    dim, f2 = rng.choice(STRATA)
    t = rng.choice(st.pool[(dim, f2)])
    P, Q = _rand_op(rng, t), _rand_op(rng, t)
    mu = tuple(Fraction(rng.randint(-4, 4), 2) for _ in range(dim))
    out = _timed_check(st, 1, ms.multiplicativity_check, P, Q,
                       [((Fraction(0),) * (dim - 1), mu)],
                       N=3 if f2 == 2 else 4, heavy=False)
    ok = out["symbol_multiplicative"] and out["normal_family_multiplicative"]
    run.op(ok, "multiplicativity_check", 2, "not multiplicative",
           wrong=not ok)


def _count(st, kind):
    st.ops += 1
    st.kinds[kind] = st.kinds.get(kind, 0) + 1


def session(st: State, run) -> None:
    st.rec.start()
    for dim, f2 in STRATA:
        t = st.rng.choice(st.pool[(dim, f2)])
        _count(st, "fully_elliptic_check")
        _op_elliptic(st, run, t, dim)
        for kind in ("negative", "complex", "on"):
            _count(st, "resolvent_model_check")
            _op_resolvent(st, run, t, dim, kind)
        for laplacian in (True, False):
            _count(st, "normal_family_matrix")
            _op_matrix(st, run, t, dim, laplacian)
    _count(st, "multiplicativity_check")
    _op_multiplicative(st, run)
    st.rec.end()


def report(st: State, run, wall_s: float) -> None:
    radius, step, N = SMALL_GRID
    run.note("mix.ops", st.ops)
    run.note("mix.kinds", st.kinds)
    run.note("mix.grid", {
        "small": {f"dim{d}": _grid_size(d, radius, step) for d in (2, 3)},
        "default": {f"dim{d}": _grid_size(d, *DEFAULT_GRID[:2])
                    for d in (2, 3)}})
    run.note("mix.modes", {
        "small_N2": {f"f2={f}": (2 * N + 1) ** f for f in (1, 2)},
        "N8": {f"f2={f}": 17 ** f for f in (1, 2)}})
    figures = {
        "check_p50_ms": common.percentile(st.check_ms, 50),
        "check_p90_ms": common.percentile(st.check_ms, 90),
        "check_samples": len(st.check_ms),
        "grid_points_per_s": st.grid_points / st.grid_s,
        "ops_per_s": st.ops / wall_s,
    }
    for k, v in figures.items():
        run.note(k, round(v, 6))

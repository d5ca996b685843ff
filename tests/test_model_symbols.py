"""Model operators: lifts, symbols, fibre-mode matrices, spectra."""

import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qhcalc import model_symbols as ms
from qhcalc.a_spaces import Tower
from qhcalc.index_algebra import cx

T = Tower(2, (1, 1, 1), 1, (1, 1))


def rand_op(rng, t, max_order=2, w_only=True):
    nm = t.b + sum(t.f)
    dims = ms.model_dims(t)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        parts = [0, 0, 0, 0]
        for _ in range(rng.randint(0, max_order)):
            parts[rng.randint(0, 3)] += 1
        # the first I, J and K entries carry the orders; the rest are 0
        mu = (parts[0],) + tuple((p,) + (0,) * (n - 1)
                                 for p, n in zip(parts[1:], dims))
        modes = [0] * nm
        if rng.random() < 0.5:
            # trig dependence in the deep fibre only keeps phases exact
            modes[nm - 1] = rng.randint(-1, 1)
        if not w_only and rng.random() < 0.3:
            modes[0] = rng.randint(-1, 1)
        c = ms.Coeff({(rng.randint(0, 1), tuple(modes), 0):
                      cx(Fraction(rng.randint(-3, 3), rng.choice([1, 2])),
                         Fraction(rng.randint(-2, 2)))})
        if not c.is_zero():
            terms[mu] = terms.get(mu, ms.Coeff()) + c
    if not terms:
        terms = {(0,) + tuple((0,) * n for n in dims): ms.coeff_const(t, 1)}
    return ms.make_op(t, terms)


# --- vector field lifts -----------------------------------------------------

def test_lift_corner_stage():
    out = ms.lift_stage_x((ms._vt(1, 0, (), "x_dx"),))
    s = ms.format_vf(out)
    assert "x_dx" in s and "-1t*dt" in s


def test_lift_intermediate_identity():
    # the once-scaled boundary generator restricts to the model derivative
    # at the intermediate front face
    a1 = T.orders[1]
    terms = ms.lift_stage_y(ms.lift_stage_x((ms._vt(1, a1, (), "x_dx"),)), a1)
    bp = ms.boundary_part(terms)
    assert len(bp) == 1 and bp[0].direction == "dT" and bp[0].coeff == 1
    assert all(tm.xpow >= 1 for tm in terms if tm not in bp)


def test_lift_top_identities():
    for kind, d in (("x", "dcT"), ("y", "dcY"), ("z", "dcZ"), ("w", "dw")):
        terms = ms.lift_vf(T, kind, "z")
        bp = ms.boundary_part(terms)
        assert len(bp) == 1 and bp[0].direction == d and bp[0].coeff == 1
        assert all(tm.xpow >= 1 for tm in terms if tm not in bp)


def test_lift_identities_general_orders():
    t = Tower(2, (1, 2, 3), 2, (1, 2))
    for kind, d in (("x", "dcT"), ("y", "dcY"), ("z", "dcZ")):
        bp = ms.boundary_part(ms.lift_vf(t, kind, "z"))
        assert len(bp) == 1 and bp[0].direction == d


def test_transversality_sweep():
    rng = random.Random(3)
    for _ in range(12):
        t = Tower(2, (1, rng.randint(1, 3), rng.randint(1, 3)),
                  rng.randint(0, 3), (rng.randint(0, 3), rng.randint(0, 3)))
        assert ms.transversality_check(t)
    assert not ms.transversality_check(T, include_w=False)
    t0 = Tower(2, (1, 1, 1), 1, (1, 0))
    assert ms.transversality_check(t0, include_w=False)  # trivial deep fibre


def test_transversality_rejects_broken_lift_under_optimize(monkeypatch):
    # a lift whose boundary part is not the model derivative must fail the
    # check, also under python -O, which strips assert statements
    code = textwrap.dedent("""
        from qhcalc import model_symbols as ms
        from qhcalc.a_spaces import Tower
        lift = ms.lift_vf
        ms.lift_vf = lambda t, kind, stage: lift(
            t, "w" if kind == "y" else kind, stage)
        print(ms.transversality_check(Tower(2, (1, 1, 1), 1, (1, 1))))
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"
    lift = ms.lift_vf
    monkeypatch.setattr(ms, "lift_vf", lambda t, kind, stage: lift(
        t, "w" if kind == "z" else kind, stage))
    assert ms.transversality_check(T) is False


# --- symbols and composition -------------------------------------------------

def test_principal_symbol_examples():
    X = ms.generator(T, "x")
    assert ms.principal_symbol(X).degree == 1
    lap = ms.model_laplacian(T)
    s = ms.principal_symbol(lap)
    assert s.degree == 2 and len(s.terms) == 4
    const = ms.make_op(T, {(0, (0,), (0,), (0,)): ms.coeff_const(T, 5)})
    s0 = ms.principal_symbol(const)
    assert s0.degree == 0


def test_symbol_multiplicativity_exact_random():
    rng = random.Random(11)
    for _ in range(50):
        t = Tower(2, (1, rng.randint(1, 2), rng.randint(1, 2)), 1,
                  (1, rng.randint(1, 2)))
        P, Q = rand_op(rng, t), rand_op(rng, t)
        PQ = ms.op_compose(P, Q)
        assert ms.symbols_equal(
            ms.principal_symbol(PQ),
            ms.symbol_mul(ms.principal_symbol(P), ms.principal_symbol(Q)))


def test_commutator_is_lower_order_with_extra_vanishing():
    X, Z = ms.generator(T, "x"), ms.generator(T, "z", 0)
    XZ, ZX = ms.op_compose(X, Z), ms.op_compose(Z, X)
    comm = {}
    for mu, c in XZ.terms:
        comm[mu] = comm.get(mu, ms.Coeff()) + c
    for mu, c in ZX.terms:
        comm[mu] = comm.get(mu, ms.Coeff()) + c.scale(cx(-1))
    comm = {mu: c for mu, c in comm.items() if not c.is_zero()}
    assert all(ms._mi_degree(mu) < 2 for mu in comm)
    assert all(n >= 1 for c in comm.values() for (n, m, w) in c)


def test_normal_family_matrix_examples():
    lap = ms.model_laplacian(T)
    M = ms.normal_family_matrix(lap, (0, 0), (1, 2, 2), 3)
    assert M.exact and M.is_diagonal()
    A = M.to_array()
    # diagonal entries are |mu|^2 + 4 pi^2 k^2
    import math
    diag = sorted(np.real(np.diag(A)))
    assert abs(diag[0] - 9.0) < 1e-12
    assert abs(diag[1] - (9.0 + 4 * math.pi ** 2)) < 1e-9

    Dw = ms.generator(T, "w", 0)
    Mw = ms.normal_family_matrix(Dw, (0, 0), (0, 0, 0), 2)
    dw = np.real(np.diag(Mw.to_array()))
    assert sorted(dw.tolist()) == sorted(
        [2 * math.pi * k for k in range(-2, 3)])

    ident = ms.identity_op(T)
    Mi = ms.normal_family_matrix(ident, (0, 0), (0, 0, 0), 2)
    assert np.allclose(Mi.to_array(), np.eye(5))


def test_normal_family_truncation_guard():
    t = T
    nm = t.b + sum(t.f)
    modes = [0] * nm
    modes[-1] = 3
    P = ms.make_op(t, {(0, (0,), (0,), (0,)):
                       ms.Coeff({(0, tuple(modes), 0): cx(1)})})
    with pytest.raises(ValueError):
        ms.normal_family_matrix(P, (0, 0), (0, 0, 0), 2)


def test_normal_family_multiplicative_exact_random():
    rng = random.Random(13)
    pt = (0, 0)
    for _ in range(50):
        P, Q = rand_op(rng, T), rand_op(rng, T)
        mu = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)),
              Fraction(rng.randint(-2, 2), 2))
        out = ms.multiplicativity_check(P, Q, [(pt, mu)], N=4)
        assert out["symbol_multiplicative"]
        assert out["normal_family_multiplicative"]
        assert out["exact"]


def test_normal_family_multiplicative_numeric_phases():
    rng = random.Random(31)
    for _ in range(10):
        P = rand_op(rng, T, w_only=False)
        Q = rand_op(rng, T, w_only=False)
        pt = (Fraction(1, 3), Fraction(1, 7))
        mu = (1, Fraction(1, 2), 2)
        out = ms.multiplicativity_check(P, Q, [(pt, mu)], N=4)
        assert out["symbol_multiplicative"]
        assert out["normal_family_multiplicative"]


def test_normal_family_adjoint_hermitian():
    # real-coefficient symmetric model: matrix is Hermitian
    lap = ms.model_laplacian(T)
    M = ms.normal_family_matrix(lap, (Fraction(1, 3), 0),
                                (1, Fraction(1, 2), 2), 3)
    A = M.to_array()
    assert np.allclose(A, A.conj().T)


def test_kernel_coeff_check():
    lap = ms.model_laplacian(T)
    out = ms.kernel_coeff_check(lap)
    assert out["lift_corrections_vanish"]
    assert len(out["leading_coefficients"]) == 4
    # multiplication by the boundary coordinate has no boundary part
    xmul = ms.make_op(T, {(0, (0,), (0,), (0,)):
                          ms.coeff_const(T, 1, xpow=1)})
    assert ms.kernel_coeff_check(xmul)["leading_coefficients"] == {}
    rng = random.Random(29)
    for _ in range(20):
        P = rand_op(rng, T)
        res = ms.kernel_coeff_check(P)
        assert res["lift_corrections_vanish"]
        for mu, c in res["leading_coefficients"].items():
            assert c == P.coeff(mu).at_x0()


def test_fully_elliptic_certificates():
    lap = ms.model_laplacian(T)
    cert = ms.fully_elliptic_check(lap, lam_re0=-1, N=4,
                                   radius=Fraction(3), step=Fraction(1, 2),
                                   analytic_tail="eigenvalues >= |mu|^2")
    assert cert["symbol_elliptic"] and cert["fully_elliptic"]
    assert cert["min_singular_value"] >= 1 - 1e-12
    cert0 = ms.fully_elliptic_check(lap, N=4, radius=Fraction(3),
                                    step=Fraction(1, 2))
    assert not cert0["fully_elliptic"]
    assert cert0["witness"] is not None
    one = ms.identity_op(T)
    c1 = ms.fully_elliptic_check(one, N=2, radius=Fraction(1),
                                 step=Fraction(1, 2))
    assert abs(c1["min_singular_value"] - 1) < 1e-12


def test_resolvent_model_check():
    r = ms.resolvent_model_check(T, -1, 0, 0, N=4, radius=Fraction(3),
                                 step=Fraction(1, 2))
    assert r["invertible"] and abs(r["margin"] - 1) < 1e-12
    r2 = ms.resolvent_model_check(T, 0, 0, 1, N=4, radius=Fraction(3),
                                  step=Fraction(1, 2))
    assert r2["invertible"] and abs(r2["margin"] - 1) < 1e-12
    r3 = ms.resolvent_model_check(T, 0, 4, 0, N=4, radius=Fraction(3),
                                  step=Fraction(1, 2))
    assert not r3["invertible"]
    assert r3["witness"] == {"mu_norm_sq": "0", "k_norm_sq": "1"}


def test_operator_shape_checked_when_built():
    # T has b = f1 = f2 = 1; the mode arithmetic would silently zip
    # three base entries, a short K or a two-mode coefficient down
    bad_mu = [(0, (0, 0, 0), (0,), (0,)), (0, (0,), (0,), ())]
    for mu in bad_mu:
        with pytest.raises(ValueError, match=r"lengths \(1, 1, 1\)"):
            ms.make_op(T, {mu: 1})
    with pytest.raises(ValueError, match="modes need length 3"):
        ms.make_op(T, {(0, (0,), (0,), (0,)):
                       ms.Coeff({(0, (0, 1), 0): cx(1)})})


def test_weighted_field_validator():
    assert ms.is_weighted_field(
        T, [(3, "x", 1), (2, "y", 1), (1, "z", 1), (0, "w", 1)])
    assert not ms.is_weighted_field(T, [(2, "x", 1)])
    assert not ms.is_weighted_field(T, [(0, "z", 1)])
    t = Tower(2, (1, 2, 3), 1, (1, 1))
    assert ms.is_weighted_field(t, [(6, "x", 1), (5, "y", 1), (3, "z", 1)])
    assert not ms.is_weighted_field(t, [(5, "x", 1)])
    with pytest.raises(ValueError):
        ms.is_weighted_field(T, [(0, "q", 1)])


def test_sampled_symbol_ellipticity():
    from qhcalc.index_algebra import cx
    X = ms.generator(T, "x")
    # a single first-order generator vanishes on most of the sphere
    cert = ms.fully_elliptic_check(X, N=2, radius=Fraction(1),
                                   step=Fraction(1, 2))
    assert not cert["symbol_elliptic"]
    # laplacian plus a small imaginary cross term: elliptic (the real
    # part dominates) but no longer a sum of squares, so sampled
    terms = {mu: c for mu, c in ms.model_laplacian(T).terms}
    cross = (1, (1,), (0,), (0,))
    terms[cross] = ms.coeff_const(T, 0) + ms.Coeff(
        {(0, (0, 0, 0), 0): cx(0, Fraction(1, 2))})
    P = ms.make_op(T, terms)
    cert2 = ms.fully_elliptic_check(P, N=2, radius=Fraction(1),
                                    step=Fraction(1, 2))
    assert cert2["symbol_elliptic"]
    assert cert2["symbol_check"] == "sampled on the unit sphere"


# --- batched grid sweep against the per-point path ---------------------------

def _per_point_sweep(P, lam, N, radius, step):
    """Reference: exact matrix and one SVD per grid point, strict <."""
    t = P.tower
    n = int(radius / step)
    axis = [step * i for i in range(-n, n + 1)]
    point = (Fraction(0),) * (t.b + t.f[0])
    ident = np.eye((2 * N + 1) ** t.f[1])
    best, witness = math.inf, None
    for mu in itertools.product(axis, repeat=1 + t.b + t.f[0]):
        A = ms.normal_family_matrix(P, point, mu, N).to_array() - lam * ident
        sv = float(np.linalg.svd(A, compute_uv=False)[-1])
        if sv < best:
            best, witness = sv, {"mu": [str(m) for m in mu]}
    return best, witness


def _family_op(rng, t, xpow=None):
    """Random order <= 2 operator, w-dependent in most terms."""
    dims = (t.b, t.f[0], t.f[1])
    nm = sum(dims)
    terms = {}
    for _ in range(rng.randint(2, 4)):
        parts = [rng.randint(0, 2), [0] * dims[0], [0] * dims[1],
                 [0] * dims[2]]
        for _ in range(rng.randint(0, 2)):
            lv = rng.randint(0, 2)
            if dims[lv]:
                parts[lv + 1][rng.randrange(dims[lv])] += 1
        mu = (parts[0],) + tuple(tuple(p) for p in parts[1:])
        modes = [0] * nm
        if rng.random() < 0.7:
            modes[nm - 1 - rng.randrange(dims[2])] = rng.randint(-1, 1)
        n = rng.randint(0, 1) if xpow is None else xpow
        c = ms.Coeff({(n, tuple(modes), rng.randint(0, 1)):
                      cx(Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])),
                         Fraction(rng.randint(-2, 2)))})
        if not c.is_zero():
            terms[mu] = terms.get(mu, ms.Coeff()) + c
    return ms.make_op(t, terms)


def _lam(re0, re2=0, im=0):
    return complex(float(re0) + float(re2) * math.pi ** 2, float(im))


def test_grid_sweep_matches_per_point_path():
    rng = random.Random(17)
    radius, step = Fraction(1), Fraction(1, 2)
    cases = []      # (operator, (lam_re0, lam_re2, lam_im), N)
    for (b, f1), f2 in itertools.product(((1, 0), (0, 1), (1, 1), (0, 2)),
                                         (1, 2)):
        t = Tower(2, (1, rng.randint(1, 3), rng.randint(1, 3)), b, (f1, f2))
        N = 1 if f2 == 2 else 2
        for lam in ((Fraction(rng.randint(-6, 6), 2), 0, 0),
                    (Fraction(rng.randint(-6, 6), 2), 1,
                     Fraction(rng.choice([-3, -1, 1, 3]), 2))):
            cases.append((_family_op(rng, t), lam, N))
        # no x^0 term: the boundary family vanishes, A = -lam I
        cases.append((_family_op(rng, t, xpow=1), (-2, 0, 1), N))
    # the sampled-symbol operator: laplacian plus an imaginary cross term
    terms = dict(ms.model_laplacian(T).terms)
    terms[(1, (1,), (0,), (0,))] = ms.Coeff(
        {(0, (0, 0, 0), 0): cx(0, Fraction(1, 2))})
    cases.append((ms.make_op(T, terms), (-1, 0, 0), 2))
    for P, lam, N in cases:
        cert = ms.fully_elliptic_check(P, *lam, N=N, radius=radius,
                                       step=step)
        want, witness = _per_point_sweep(P, _lam(*lam), N, radius, step)
        assert abs(cert["min_singular_value"] - want) <= 1e-12 * want
        assert cert["witness"] == witness
    # a tie at every grid point: the witness is the first grid point
    cert = ms.fully_elliptic_check(ms.identity_op(T), 1, N=2, radius=radius,
                                   step=step)
    assert cert["min_singular_value"] == 0
    assert cert["witness"] == {"mu": ["-1", "-1", "-1"]}
    # closed form: laplacian + c - lam is the laplacian at lam - c
    for t in (T, Tower(2, (1, 2, 1), 0, (2, 2))):
        terms = dict(ms.model_laplacian(t).terms)
        terms[(0, (0,) * t.b, (0,) * t.f[0], (0,) * t.f[1])] = \
            ms.coeff_const(t, Fraction(1, 2))
        P = ms.make_op(t, terms)
        cert = ms.fully_elliptic_check(P, -1, 0, 1, N=2, radius=radius,
                                       step=step)
        ref = ms.laplacian_spectrum_min_distance(
            t, Fraction(-3, 2), 0, 1, 2, radius, step)["min_distance"]
        assert math.isclose(cert["min_singular_value"], ref, rel_tol=1e-12)


def test_spectrum_distance_memory_stays_small():
    # the distinct |mu|^2 values replace the dense grid: at radius 5 the
    # grid has 21^4 points, which in one piece took about 60 MB
    t = Tower(2, (1, 3, 1), 2, (1, 1))
    tracemalloc.start()
    try:
        r = ms.laplacian_spectrum_min_distance(t, -1, 0, 1, 8, Fraction(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20
    assert r["min_distance"] == abs(complex(-1, 1)) and r["witness"] is None


def test_generator_index_out_of_range_is_rejected():
    t = Tower(2, (1, 1, 1), 0, (0, 1))
    for kind, index in (("y", 0), ("z", 0), ("w", 1), ("w", -1)):
        with pytest.raises(ValueError, match=f"generator {kind} has no"):
            ms.generator(t, kind, index)
    assert ms.generator(t, "w", 0).order == 1

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

def identity_op(t):
    return ms.make_op(t, {ms._mi_zero(t): 1})


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

    ident = identity_op(T)
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


# --- integer mode assembly against the per-entry loop ---------------------

def _ref_mode_entries(c, K, modes, N, sw):
    """Reference: one (m, row, col, angle power, K-factor, v) per x^0
    coefficient and in-window column, with a nonzero K-factor."""
    dk = sum(K)
    for (n, m, w), v in c.items():
        if n != 0:
            continue
        mw = m[sw]
        for col in modes:
            row = tuple(cc + dd for cc, dd in zip(col, mw))
            if any(abs(r) > N for r in row):
                continue
            kfac = 1
            for q, k in zip(col, K):
                kfac *= q ** k
            if kfac:
                yield m, row, col, w + dk, kfac, v


def _ref_normal_family(P, point, mu, N):
    """Reference: one CxRat product and one CxRat sum per contribution.
    Also returns how many sums cancelled to 0."""
    b = P.tower.b
    point = tuple(Fraction(p) for p in point)
    mu = tuple(Fraction(m) for m in mu)
    sy, sz, sw = ms._mode_slices(P.tower)
    modes = ms._truncated_modes(P.tower, N, P.terms)
    phases = {m: sum(mi * pi for mi, pi in zip(m[sy], point[:b]))
              + sum(mi * pi for mi, pi in zip(m[sz], point[b:]))
              for _, c in P.terms for (n, m, w) in c if n == 0}
    exact = all(ph.denominator == 1 for ph in phases.values())
    entries, cancelled = {}, 0
    for (alpha, I, J, K), c in P.terms:
        base = mu[0] ** alpha
        for x, p in zip(mu[1:], I + J):
            base *= x ** p
        if base == 0:
            continue
        for m, row, col, wpow, kfac, v in _ref_mode_entries(c, K, modes, N,
                                                            sw):
            val = v * (base * kfac)
            if exact:
                ent = entries.setdefault((row, col), ms.PiPoly())
                ent.acc(wpow, val)
                cancelled += wpow not in ent
                continue
            phase = float(phases[m])
            ph = complex(math.cos(ms.TWO_PI * phase),
                         math.sin(ms.TWO_PI * phase))
            entries[(row, col)] = entries.get((row, col), 0j) \
                + complex(val.re, val.im) * (ms.TWO_PI ** wpow) * ph
    entries = {k: v for k, v in entries.items() if v}
    return (ms.NormalFamilyMatrix(P.tower, point, mu, N, modes, entries,
                                  exact), cancelled)


def _ref_compile_family(P, N):
    """Reference: exact sums per (angle power, monomial), then arrays."""
    _, _, sw = ms._mode_slices(P.tower)
    modes = ms._truncated_modes(P.tower, N, P.terms)
    exact = {}
    for (alpha, I, J, K), c in P.terms:
        for _, row, col, wpow, kfac, v in _ref_mode_entries(c, K, modes, N,
                                                            sw):
            ent = exact.setdefault((wpow, (alpha,) + I + J), {})
            ent[(row, col)] = ent.get((row, col), cx(0)) + v * kfac
    idx = {k: i for i, k in enumerate(modes)}
    family = {}
    for (wpow, e), ent in sorted(exact.items()):
        C = np.zeros((len(modes), len(modes)), dtype=complex)
        for (r, c), v in ent.items():
            C[idx[r], idx[c]] = complex(v.re, v.im)
        family.setdefault(wpow, []).append((e, C))
    return modes, family


def _oracle_op(rng, t, N):
    """Random operator with complex and negative coefficients, deep-fibre
    shifts up to the truncation edge, and pairs of contributions that
    cancel on some entries (or, as sin 2 pi y at the base point 0, on
    all of them)."""
    b, f1, f2 = ms.model_dims(t)

    def value():
        return cx(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 6))),
                  Fraction(rng.randint(-3, 3), rng.choice((1, 4))))

    def modes():
        return (tuple(rng.randint(-1, 1) for _ in range(b + f1))
                + tuple(rng.choice((-N, N, 0, rng.randint(-N, N)))
                        for _ in range(f2)))

    def multi(K=None):
        return ((rng.randint(0, 2),)
                + tuple(tuple(rng.randint(0, 1) for _ in range(n))
                        for n in (b, f1))
                + (K if K is not None
                   else tuple(rng.randint(0, 2) for _ in range(f2)),))

    terms = {}
    for _ in range(rng.randint(2, 4)):
        c = ms.Coeff()
        for _ in range(rng.randint(1, 3)):
            c.acc((rng.choice((0, 0, 1)), modes(), rng.randint(0, 1)),
                  value())
        terms[multi()] = c
    v, m = value(), modes()
    if v.re == 0 and v.im == 0:
        v = cx(-1, 2)
    # sin: opposite base or middle modes, one deep shift
    flip = tuple(-q for q in m[:b + f1]) + m[b + f1:]
    if flip != m:
        mu = multi()
        terms[mu] = terms.get(mu, ms.Coeff()) + ms.Coeff(
            {(0, m, 0): v, (0, flip, 0): cx(0) - v})
    if f2:
        # v q - v q^2 vanishes on the columns with q = 1
        mu1 = multi((1,) + (0,) * (f2 - 1))
        mu2 = mu1[:3] + ((2,) + (0,) * (f2 - 1),)
        terms[mu1] = ms.Coeff({(0, m, 1): v})
        terms[mu2] = ms.Coeff({(0, m, 0): cx(0) - v})
    return ms.make_op(t, terms)


def test_mode_assembly_matches_per_entry_loop():
    rng = random.Random(71)
    checked = cancelled = dropped = 0
    for (b, f1), f2, N in itertools.product(
            ((1, 0), (0, 1), (1, 1), (0, 2)), (0, 1, 2), (0, 1, 8)):
        t = Tower(2, (1, rng.randint(1, 3), rng.randint(1, 3)), b, (f1, f2))
        P = _oracle_op(rng, t, N)
        mu = tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                   for _ in range(1 + b + f1))
        for point in ((0,) * (b + f1), (Fraction(1, 3),) * (b + f1)):
            got = ms.normal_family_matrix(P, point, mu, N)
            want, n = _ref_normal_family(P, point, mu, N)
            cancelled += n
            assert (got.modes, got.exact) == (want.modes, want.exact)
            assert list(got.entries) == list(want.entries)
            for key, v in want.entries.items():
                # exact entries keep the reference's power order too
                assert (list(got.entries[key].items()) == list(v.items())
                        if want.exact else got.entries[key] == v)
            assert got.to_array().tobytes() == want.to_array().tobytes()
            checked += 1
        modes, family = ms._compile_family(P, N)
        ref_modes, ref_family = _ref_compile_family(P, N)
        assert modes == ref_modes
        # a group whose entries all cancel has no array; it adds nothing
        for k, terms in ref_family.items():
            kept = [(e, C) for e, C in terms if C.any()]
            dropped += len(terms) - len(kept)
            assert [(e, C.tobytes()) for e, C in kept] == [
                (e, C.tobytes()) for e, C in family.get(k, [])]
        assert set(family) <= set(ref_family)
    assert checked == 72 and cancelled and dropped


def test_potential_matrix_makes_one_cxrat_per_value(monkeypatch):
    # Laplacian + 1/2 cos(2 pi w_1) at N = 8 and f2 = 2: 289 modes
    t = Tower(2, (1, 2, 1), 1, (0, 2))
    terms = dict(ms.model_laplacian(t).terms)
    terms[ms._mi_zero(t)] = ms.Coeff({(0, (0, 1, 0), 0): cx(Fraction(1, 4)),
                                      (0, (0, -1, 0), 0): cx(Fraction(1, 4))})
    P = ms.make_op(t, terms)
    made = []
    post_init = ms.CxRat.__post_init__

    def counted(self):
        made.append(1)
        post_init(self)

    monkeypatch.setattr(ms.CxRat, "__post_init__", counted)
    M = ms.normal_family_matrix(P, (0,), (Fraction(1, 2), Fraction(-3, 2)),
                                8)
    values = sum(len(v) for v in M.entries.values())
    coeffs = sum(1 for _, c in P.terms for (n, _, _) in c if n == 0)
    # |mu|^2 on the diagonal, 4 pi^2 |k|^2 off the zero mode, and the
    # potential's two shifts on 16 * 17 columns each
    assert M.dim() == 289 and (values, coeffs) == (289 + 288 + 2 * 272, 6)
    assert len(made) <= values + coeffs


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
                                   radius=Fraction(3), step=Fraction(1, 2))
    assert cert["symbol_elliptic"] and cert["fully_elliptic"]
    assert cert["min_singular_value"] >= 1 - 1e-12
    cert0 = ms.fully_elliptic_check(lap, N=4, radius=Fraction(3),
                                    step=Fraction(1, 2))
    assert not cert0["fully_elliptic"]
    assert cert0["witness"] is not None
    one = identity_op(T)
    c1 = ms.fully_elliptic_check(one, N=2, radius=Fraction(1),
                                 step=Fraction(1, 2))
    assert abs(c1["min_singular_value"] - 1) < 1e-12
    # no bound covers parameters beyond the grid yet
    assert cert["tail"] == cert0["tail"] == c1["tail"] == "grid-only"


def test_mode_dependent_operator_builds_no_laplacian(monkeypatch):
    # a torus mode in a coefficient rules out the closed form at once
    terms = {mu: c for mu, c in ms.model_laplacian(T).terms}
    terms[ms._mi_zero(T)] = ms.Coeff({(0, (0, 0, 1), 0): cx(1)})
    P = ms.make_op(T, terms)

    def refuse(t):
        raise AssertionError("model Laplacian built for a w-dependent op")

    monkeypatch.setattr(ms, "model_laplacian", refuse)
    cert = ms.fully_elliptic_check(P, lam_re0=-3, N=2, radius=Fraction(1),
                                   step=Fraction(1, 2))
    assert cert["fully_elliptic"] and cert["witness"] is not None


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


def test_negative_multi_index_rejected_when_built():
    # a negative entry used to build an operator whose fibre-mode matrix
    # raised later: a float mode factor for K, a zero division for alpha
    for mu in [(0, (0,), (0,), (-1,)), (-1, (0,), (0,), (0,)),
               (0, (-1,), (0,), (0,)), (0, (0,), (-2,), (0,))]:
        with pytest.raises(ValueError, match="has a negative entry"):
            ms.make_op(T, {mu: ms.coeff_const(T, 1)})
    # with no base and no fibres, alpha is the whole multi-index
    t0 = Tower(2, (1, 1, 1), 0, (0, 0))
    assert ms.make_op(t0, {(2, (), (), ()): 1}).order == 2
    with pytest.raises(ValueError, match="has a negative entry"):
        ms.make_op(t0, {(-1, (), (), ()): 1})


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


def test_basis_fields_are_weighted_and_sharp():
    for a1, a2 in itertools.product(range(1, 4), repeat=2):
        t = Tower(2, (1, a1, a2), 1, (1, 1))
        for kind in ("x", "y", "z", "w"):
            (tm,) = ms.basis_field(t, kind)
            assert tm.direction == ("x_dx" if kind == "x" else "d" + kind)
            # x d/dx carries one boundary power more as a d/dx field
            xpow = tm.xpow + (kind == "x")
            assert ms.is_weighted_field(t, [(xpow, kind, tm.coeff)])
            assert not ms.is_weighted_field(t, [(xpow - 1, kind, tm.coeff)])
    with pytest.raises(ValueError, match="kind must be one of"):
        ms.basis_field(T, "q")


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


def _scalar_symbol_nonvanishing(sym):
    """Reference: the sampled check one sphere point at a time."""
    t = sym.tower
    nvars = 1 + t.b + t.f[0] + t.f[1]
    terms = [((mu[0],) + mu[1] + mu[2] + mu[3],
              sum(complex(v.re, v.im) * ms.TWO_PI ** w
                  for (n, _, w), v in c.items() if n == 0))
             for mu, c in sym.terms]
    for face_var in range(nvars):
        for sign in (-1.0, 1.0):
            for rest in itertools.product(ms._SPHERE_AXIS, repeat=nvars - 1):
                xi = rest[:face_var] + (sign,) + rest[face_var:]
                total = 0j
                for powers, v in terms:
                    mono = 1.0
                    for p, x in zip(powers, xi):
                        mono *= x ** p
                    total += v * mono
                if abs(total) <= ms._SYMBOL_TOL:
                    return False
    return True


def _order2_symbol(t, monomials):
    """Top symbol of sum c * xi_i * xi_j over (i, j, c, xpow, wpow)."""
    nm = t.b + sum(t.f)
    cut = (1, 1 + t.b, 1 + t.b + t.f[0])
    terms = {}
    for i, j, c, xpow, wpow in monomials:
        e = [0] * (1 + nm)
        e[i] += 1
        e[j] += 1
        mu = (e[0], tuple(e[cut[0]:cut[1]]), tuple(e[cut[1]:cut[2]]),
              tuple(e[cut[2]:]))
        terms[mu] = terms.get(mu, ms.Coeff()) + ms.Coeff(
            {(xpow, (0,) * nm, wpow): c})
    return ms.principal_symbol(ms.make_op(t, terms))


def test_sampled_symbol_matches_scalar_loop():
    rng = random.Random(29)
    towers = [Tower(2, (1, 1, 1), b, f)
              for b, f in ((0, (0, 1)), (1, (0, 1)), (1, (1, 1)), (0, (2, 1)),
                           (1, (1, 2)))]
    syms = []
    for t in towers:
        n = 1 + t.b + sum(t.f)
        for _ in range(6):
            mons = []
            if rng.random() < 0.6:      # a positive sum of squares ...
                mons += [(v, v, cx(rng.randint(1, 3)), 0, rng.randint(0, 1))
                         for v in range(n)]
            for _ in range(rng.randint(1, 3)):     # ... plus a cross term
                i, j = rng.sample(range(n), 2)
                mons.append((i, j, cx(Fraction(rng.randint(-3, 3), 2),
                                      Fraction(rng.randint(-2, 2), 2)),
                             rng.randint(0, 1), rng.randint(0, 1)))
            syms.append(_order2_symbol(t, mons))
    t = towers[1]
    # tau^2 - eta^2 is exactly 0 at the sample point (1, 1, 0)
    syms.append(_order2_symbol(t, [(0, 0, cx(1), 0, 0),
                                   (1, 1, cx(-1), 0, 0),
                                   (2, 2, cx(1), 0, 0)]))
    # tau^2 - 9 eta^2 is 0 up to rounding at eta = 1/3 (seventh-grid)
    syms.append(_order2_symbol(t, [(0, 0, cx(1), 0, 0),
                                   (1, 1, cx(-9), 0, 0),
                                   (0, 2, cx(0, 1), 0, 0)]))
    got = [ms._symbol_nonvanishing_sampled(s) for s in syms]
    assert got == [_scalar_symbol_nonvanishing(s) for s in syms]
    assert got[-2:] == [False, False] and True in got and False in got[:-2]


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
    cert = ms.fully_elliptic_check(identity_op(T), 1, N=2, radius=radius,
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


def _per_mode_min_distance(t, lam, N, radius, step):
    """The distance with one numpy reduction per truncated mode, as the
    spectral check computed |k|^2 before the sumset of squares."""
    n = int(radius / step)
    axis = np.array([float(step * i) for i in range(-n, n + 1)])
    mu2 = np.zeros(1)
    for _ in range(1 + t.b + t.f[0]):
        mu2 = np.unique(mu2[:, None] + np.unique(axis * axis)[None, :])
    ks = [np.sum(np.array(k, dtype=float) ** 2)
          for k in itertools.product(range(-N, N + 1), repeat=t.f[1])]
    eig = mu2[None, :] + ms.TWO_PI ** 2 * np.unique(np.array(ks))[:, None]
    return float(np.abs(eig - _lam(*lam)).min())


def test_spectrum_distance_equals_per_mode_loop():
    # |k|^2 are exact integers in both sums, so the distances agree bit
    # for bit; a parameter built on the spectrum gets its witness back
    rng = random.Random(12)
    radius, step = Fraction(3, 2), Fraction(1, 2)
    for _ in range(16):
        t = Tower(2, (1, 1, 1), rng.randint(0, 2),
                  (rng.randint(0, 2), rng.randint(0, 3)))
        N = rng.randint(0, 5)
        mu = [step * rng.randint(0, 3) for _ in range(1 + t.b + t.f[0])]
        k = [rng.randint(0, N) for _ in range(t.f[1])]
        on = (sum(x * x for x in mu), 4 * sum(x * x for x in k), 0)
        off = (Fraction(rng.randint(-8, 80), 2), rng.randint(0, 6),
               Fraction(rng.choice([-3, -1, 1, 3]), 4))
        for lam, witness in ((on, {"mu_norm_sq": str(on[0]),
                                   "k_norm_sq": str(on[1] // 4)}),
                             (off, None)):
            got = ms.laplacian_spectrum_min_distance(t, *lam, N, radius,
                                                     step)
            assert got["min_distance"] == _per_mode_min_distance(
                t, lam, N, radius, step)
            assert got["witness"] == witness


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


def test_oversized_grid_is_rejected_unbuilt():
    # 257 values per axis, on the Laplacian path and on the SVD sweep
    P = ms.generator(T, "w", 0)
    for check in (lambda: ms.fully_elliptic_check(P, N=1, radius=64),
                  lambda: ms.laplacian_spectrum_min_distance(
                      T, -1, 0, 0, 1, radius=64)):
        with pytest.raises(ValueError, match="exceeds 256 values per axis"):
            check()


def test_generator_index_out_of_range_is_rejected():
    t = Tower(2, (1, 1, 1), 0, (0, 1))
    for kind, index in (("y", 0), ("z", 0), ("w", 1), ("w", -1)):
        with pytest.raises(ValueError, match=f"generator {kind} has no"):
            ms.generator(t, kind, index)
    assert ms.generator(t, "w", 0).order == 1

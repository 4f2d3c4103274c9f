"""Phase-space algebra contracts: evaluation, calculus, integrals, pairing.

Expected values are either exact closed forms computed by hand (the Gaussian
moment 1/8 below, the 1/pi values) or produced by the independent scipy
quadrature oracle alongside the assertion.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad

from conftest import f0_plus, random_gaussian, random_polynomial, w0
from mqds.algebra import QGFunction, QGTerm, QuadExponent, VarSpace, poisson_bracket
from mqds.gausspoly import NonIntegrable
from mqds.models import dho_f, dho_g, oscillator_wigner, toy_resonant
from mqds.poly import Poly


def dblquad_oracle(f, lim=9.0):
    """Independent 2-D quadrature of a decaying N=1 function."""
    re = dblquad(lambda p, x: f.evaluate([x, p]).real, -lim, lim, -lim, lim,
                 epsabs=1e-11, epsrel=1e-11)[0]
    im = dblquad(lambda p, x: f.evaluate([x, p]).imag, -lim, lim, -lim, lim,
                 epsabs=1e-11, epsrel=1e-11)[0]
    return complex(re, im)


# -- evaluate ----------------------------------------------------------------

def test_evaluate_w0_origin(space):
    assert w0(space).evaluate([0.0, 0.0]) == pytest.approx(1.0 / math.pi)


def test_evaluate_zero_function(space):
    assert QGFunction.zero(space).evaluate([1.3, -2.0]) == 0


def test_evaluate_f0_plus(space):
    # direct substitution into (1/pi) e^{-2ixp}
    val = f0_plus(space).evaluate([1.0, 1.0])
    assert val == pytest.approx(np.exp(-2j) / math.pi)


def test_evaluate_dimension_mismatch(space):
    with pytest.raises(ValueError):
        w0(space).evaluate([1.0, 2.0, 3.0])


def _grid_gap(f, axes):
    """Largest |evaluate_grid - evaluate| over the grid, relative to the peak."""
    got = f.evaluate_grid(axes)
    assert got.shape == tuple(len(a) for a in axes)
    want = np.array([f.evaluate(z) for z in itertools.product(*axes)]).reshape(got.shape)
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("build", [lambda sp: oscillator_wigner(12, sp),
                                   lambda sp: toy_resonant(6, "+", sp),
                                   lambda sp: toy_resonant(6, "-", sp)],
                         ids=["W12", "F6+", "F6-"])
def test_evaluate_grid_matches_evaluate_one_dof(space, build):
    axes = [np.linspace(-4.0, 4.0, 33), np.linspace(-3.0, 2.5, 29)]
    assert _grid_gap(build(space), axes) <= 1e-14


@pytest.mark.parametrize("build", [lambda sp: dho_f(3, 3, "+", sp), lambda sp: dho_g(4, 2, sp)],
                         ids=["F33", "G42"])
def test_evaluate_grid_matches_evaluate_pinned_axes(space2, build):
    axes = [np.linspace(-2.5, 2.5, 15), np.array([0.4]), np.array([-0.7]),
            np.linspace(-2.0, 2.0, 13)]
    assert _grid_gap(build(space2), axes) <= 1e-14


def test_evaluate_grid_axis_count_mismatch(space):
    with pytest.raises(ValueError):
        w0(space).evaluate_grid([np.zeros(3)])


# -- differentiate -----------------------------------------------------------

def test_diff_monomial(space):
    f = QGFunction.from_poly(space, Poly(2, {(2, 1): 1.0}))
    g = f.differentiate(0)
    assert (g - QGFunction.from_poly(space, Poly(2, {(1, 1): 2.0}))).coeff_norm() == 0


def test_diff_gaussian(space):
    g = QGFunction.from_exponent(space, 2.0 * np.eye(2))
    got = g.differentiate(0)
    want = g.mul(QGFunction.from_poly(space, Poly(2, {(1, 0): -2.0})))
    assert (got - want).coeff_norm() < 1e-14


def test_diff_f0_plus(space):
    F = f0_plus(space)
    got = F.differentiate(1)
    want = F.mul(QGFunction.from_poly(space, Poly(2, {(1, 0): -2j})))
    assert (got - want).coeff_norm() < 1e-14


def test_diff_out_of_range(space):
    with pytest.raises(ValueError):
        w0(space).differentiate(2)


def test_mixed_partials_commute(space):
    rng = np.random.default_rng(7)
    for _ in range(5):
        f = random_gaussian(space, rng)
        d01 = f.differentiate(0).differentiate(1)
        d10 = f.differentiate(1).differentiate(0)
        assert (d01 - d10).coeff_norm() <= 1e-12 * max(f.coeff_norm(), 1.0)


# -- poisson bracket ----------------------------------------------------------

def test_poisson_canonical_pair(space):
    x = QGFunction.coordinate(space, 0)
    p = QGFunction.coordinate(space, 1)
    one = QGFunction.constant(space, 1.0)
    assert (poisson_bracket(x, p) - one).coeff_norm() == 0


def test_poisson_damped_hamiltonian(space):
    gamma = 1.0
    x = QGFunction.coordinate(space, 0)
    H = QGFunction.from_poly(space, Poly(2, {(1, 1): -gamma}))
    want = x.scaled(-gamma)
    assert (poisson_bracket(x, H) - want).coeff_norm() == 0


def test_poisson_w0_zero_mode(space):
    H = QGFunction.from_poly(space, Poly(2, {(2, 0): 0.5, (0, 2): 0.5}))
    assert poisson_bracket(w0(space), H).scaled(1j).coeff_norm() == 0


def test_jacobi_identity(space):
    rng = np.random.default_rng(11)
    for _ in range(4):
        f, g, h = (random_polynomial(space, rng, deg=2) for _ in range(3))
        cyc = (poisson_bracket(f, poisson_bracket(g, h))
               + poisson_bracket(g, poisson_bracket(h, f))
               + poisson_bracket(h, poisson_bracket(f, g)))
        scale = f.coeff_norm() * g.coeff_norm() * h.coeff_norm()
        assert cyc.coeff_norm() <= 1e-12 * scale


# -- substitute_linear ---------------------------------------------------------

def test_substitute_identity(space):
    f = w0(space)
    assert (f.substitute_linear(np.eye(2)) - f).coeff_norm() < 1e-14


def test_substitute_complex_scaling_quartic_rotation(space):
    # X -> e^{-i pi/4} X, P -> e^{+i pi/4} P maps P^2 - X^2 to i(P^2 + X^2)
    f = QGFunction.from_poly(space, Poly(2, {(0, 2): 1.0, (2, 0): -1.0}))
    M = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
    got = f.substitute_linear(M)
    want = QGFunction.from_poly(space, Poly(2, {(0, 2): 1j, (2, 0): 1j}))
    assert (got - want).coeff_norm() < 1e-14


def test_substitute_rotation_invariance(space):
    f = QGFunction.from_poly(space, Poly(2, {(2, 0): 1.0, (0, 2): 1.0}))
    th = 0.77
    M = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert (f.substitute_linear(M) - f).coeff_norm() < 1e-13


def test_substitute_singular_raises(space):
    with pytest.raises(ValueError):
        w0(space).substitute_linear(np.zeros((2, 2)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_substitution_evaluation_compatible(seed):
    # f(Mz + s) evaluated directly agrees with the substituted function
    space = VarSpace(1, 1.0)
    rng = np.random.default_rng(seed)
    f = random_gaussian(space, rng)
    M = rng.normal(size=(2, 2)) + 1.5 * np.eye(2)
    shift = rng.normal(size=2)
    z = rng.normal(size=2)
    lhs = f.substitute_linear(M, shift).evaluate(z)
    rhs = f.evaluate(M @ z + shift)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_substitution_functorial(space):
    rng = np.random.default_rng(3)
    for _ in range(4):
        f = random_gaussian(space, rng)
        M1 = rng.normal(size=(2, 2)) + np.eye(2)
        M2 = rng.normal(size=(2, 2)) + np.eye(2)
        lhs = f.substitute_linear(M1).substitute_linear(M2)
        rhs = f.substitute_linear(M1 @ M2)
        assert (lhs - rhs).coeff_norm() <= 1e-12 * max(1.0, rhs.coeff_norm())


# -- gaussian_integral ----------------------------------------------------------

def test_integral_w0(space):
    assert w0(space).gaussian_integral() == pytest.approx(1.0, abs=1e-12)


def test_integral_f0_plus(space):
    assert f0_plus(space).gaussian_integral() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("lam", [1e-3, 1e-5, 1e-7])
def test_integral_of_wide_gaussian(lam, space):
    # a 1e-2 .. 1e-8 eps ladder was off by 1.2e-7 at lam = 1e-5 and raised at 1e-7
    f = QGFunction.from_exponent(space, np.diag([lam, 1.0]))
    assert f.gaussian_integral() == pytest.approx(2 * math.pi / math.sqrt(lam), rel=1e-13)


def test_integral_g00_not_integrable(space2):
    A = np.zeros((4, 4))
    A[0, 3] = A[3, 0] = -2.0
    A[1, 2] = A[2, 1] = 2.0
    G00 = QGFunction.from_exponent(space2, A)
    with pytest.raises(NonIntegrable):
        G00.gaussian_integral()


def test_integral_linear(space):
    rng = np.random.default_rng(5)
    f = random_gaussian(space, rng)
    g = random_gaussian(space, rng)
    lhs = (f.scaled(2.0 - 1j) + g).gaussian_integral()
    rhs = (2.0 - 1j) * f.gaussian_integral() + g.gaussian_integral()
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_integral_vs_scipy_quadrature(space):
    rng = np.random.default_rng(21)
    for _ in range(3):
        f = random_gaussian(space, rng)
        closed = f.gaussian_integral()
        quad = dblquad_oracle(f)
        assert abs(closed - quad) <= 1e-6 * max(1.0, abs(closed))


def test_integral_vs_grid_quadrature_4d(space2):
    # independent tensor Gauss-Legendre sum over R^4 (broadcast evaluation);
    # instance kept mildly oscillatory so a 56^4 grid resolves it
    rng = np.random.default_rng(27)
    R = rng.normal(size=(4, 4))
    S = rng.normal(size=(4, 4))
    A = R.T @ R + 0.8 * np.eye(4) + 0.15j * (S + S.T)
    b = 0.5 * (rng.normal(size=4) + 1j * rng.normal(size=4))
    poly = Poly(4, {tuple(rng.integers(0, 2, size=4)): complex(rng.normal(), rng.normal())
                    for _ in range(3)})
    f = QGFunction(space2, [QGTerm(poly, QuadExponent(A, b))])
    closed = f.gaussian_integral()
    L, pts = 7.0, 56
    nodes, weights = np.polynomial.legendre.leggauss(pts)
    nodes, weights = nodes * L, weights * L
    mesh = np.meshgrid(*([nodes] * 4), indexing="ij")
    vals = np.zeros((pts,) * 4, dtype=complex)
    for t in f.terms:
        A, b = t.expo.A, t.expo.b
        q = np.zeros((pts,) * 4, dtype=complex)
        for i in range(4):
            q += -0.5 * A[i, i] * mesh[i] ** 2 + b[i] * mesh[i]
            for j in range(i + 1, 4):
                q += -A[i, j] * mesh[i] * mesh[j]
        pv = np.zeros((pts,) * 4, dtype=complex)
        for e, coef in t.poly.terms.items():
            mono = np.full((pts,) * 4, coef, dtype=complex)
            for i, k in enumerate(e):
                if k:
                    mono *= mesh[i] ** k
            pv += mono
        vals += pv * np.exp(q)
    quad = np.einsum("a,b,c,d,abcd->", weights, weights, weights, weights, vals)
    assert abs(closed - quad) <= 1e-6 * max(1.0, abs(closed))


# -- pair -----------------------------------------------------------------------

def test_pair_f0_gaussian_is_delta_sample(space):
    # weak form of: integrating F0+ over p leaves delta(x)
    phi = QGFunction.from_exponent(space, np.diag([1.0, 0.0]))
    assert f0_plus(space).pair(phi) == pytest.approx(1.0, abs=1e-10)


def test_pair_with_zero(space):
    assert w0(space).pair(QGFunction.zero(space)) == 0


def test_pair_w0_second_moment(space):
    # closed form: int (1/pi) x^2 e^{-2(x^2+p^2)} dx dp = 1/8 at hbar = 1
    test = QGFunction(space, [QGTerm(Poly(2, {(2, 0): 1.0}),
                                     QuadExponent(2.0 * np.eye(2), np.zeros(2)))])
    val = w0(space).pair(test)
    assert val == pytest.approx(0.125, abs=1e-12)
    assert val == pytest.approx(dblquad_oracle(w0(space).mul(test)), abs=1e-9)


# -- conjugate / coeff_norm -------------------------------------------------------

def test_conjugate_real_function(space):
    W = w0(space)
    assert (W.conjugate() - W).coeff_norm() == 0


def test_conjugate_f0(space):
    Fp = f0_plus(space)
    Fm_A = np.array([[0.0, -2j], [-2j, 0.0]])
    Fm = QGFunction.from_exponent(space, Fm_A, coeff=1.0 / math.pi)
    assert (Fp.conjugate() - Fm).coeff_norm() == 0


def test_conjugate_involution(space):
    rng = np.random.default_rng(2)
    f = random_gaussian(space, rng)
    assert (f.conjugate().conjugate() - f).coeff_norm() == 0


def test_coeff_norm_zero_iff_zero(space):
    assert QGFunction.zero(space).coeff_norm() == 0
    assert w0(space).coeff_norm() > 0


def test_coeff_norm_homogeneous(space):
    rng = np.random.default_rng(9)
    f = random_gaussian(space, rng)
    c = 2.5 - 1.5j
    assert f.scaled(c).coeff_norm() == pytest.approx(abs(c) * f.coeff_norm(), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_coeff_norm_triangle(seed):
    space = VarSpace(1, 1.0)
    rng = np.random.default_rng(seed)
    f = random_gaussian(space, rng)
    g = random_gaussian(space, rng)
    assert (f + g).coeff_norm() <= f.coeff_norm() + g.coeff_norm() + 1e-12


# -- canonical form / serialization ------------------------------------------------

def test_canonicalization_idempotent(space):
    rng = np.random.default_rng(4)
    f = random_gaussian(space, rng) + random_polynomial(space, rng)
    g = QGFunction(space, list(f.terms))
    assert (f - g).coeff_norm() == 0
    assert len(g.terms) == len(f.terms)


def test_terms_merge_on_equal_exponent(space):
    A = 2.0 * np.eye(2)
    t1 = QGTerm(Poly.const(2, 1.0), QuadExponent(A, np.zeros(2)))
    t2 = QGTerm(Poly.const(2, 2.0), QuadExponent(A + 1e-15, np.zeros(2)))
    f = QGFunction(space, [t1, t2])
    assert len(f.terms) == 1
    assert f.evaluate([0, 0]) == pytest.approx(3.0)


def test_serialization_round_trip(space):
    rng = np.random.default_rng(6)
    f = random_gaussian(space, rng) + random_polynomial(space, rng)
    g = QGFunction.from_json_dict(f.to_json_dict())
    assert (f - g).coeff_norm() <= 1e-12 * f.coeff_norm()


def test_serialization_deterministic(space):
    rng = np.random.default_rng(8)
    f = random_gaussian(space, rng)
    import json
    assert json.dumps(f.to_json_dict(), sort_keys=True) == json.dumps(f.to_json_dict(), sort_keys=True)

"""Model constructors: Hamiltonians, ladder families, spectra, complex
scaling, and the resonant-pair transform."""

import math

import numpy as np
import pytest

from conftest import f0_plus, w0
from mqds.algebra import QGFunction, VarSpace, poisson_bracket
from mqds.models import (ModelId, UnsupportedPair, WaveFunction, conjugation_by_V, dho_f,
                         dho_g, eigenvalue, hamiltonian, hyperbolic_frame_matrix,
                         koopman_apply, ladder_set, lift_dynamics, oscillator_wigner,
                         oscillator_wigner_ladder, spectrum, toy_resonant,
                         toy_resonant_ladder, wigner_pair_transform)
from mqds.poly import Poly
from mqds.star import moyal_bracket, star


def eig_residual(model, F, E, space):
    H = hamiltonian(model, space)
    r = (star(H, F) - F.scaled(E)).coeff_norm() + (star(F, H) - F.scaled(E)).coeff_norm()
    return r / (abs(E) * F.coeff_norm())


# -- model ids / hamiltonians -----------------------------------------------------

def test_model_validation():
    with pytest.raises(ValueError):
        ModelId("bogus")
    with pytest.raises(ValueError):
        ModelId.oscillator(-1.0)
    assert ModelId.dho(2.0, 0.5).alpha == pytest.approx(2.0 - 0.5j)


def test_hamiltonian_oscillator(space):
    H = hamiltonian(ModelId.oscillator(1.0), space)
    want = QGFunction.from_poly(space, Poly(2, {(2, 0): 0.5, (0, 2): 0.5}))
    assert (H - want).coeff_norm() == 0


def test_hamiltonian_toy(space):
    H = hamiltonian(ModelId.toy(1.0), space)
    want = QGFunction.from_poly(space, Poly(2, {(1, 1): -1.0}))
    assert (H - want).coeff_norm() == 0


def test_hamiltonian_dho_ladder_form(space2):
    # H = hbar alpha (a2* . a1 + 1/2) + hbar conj(alpha) (a1* . a2 + 1/2)
    model = ModelId.dho(1.3, 0.7)
    H = hamiltonian(model, space2)
    lad = ladder_set(model, space2)
    hbar = space2.hbar
    al = model.alpha
    half = QGFunction.constant(space2, 0.5)
    want = (star(lad["a2*"], lad["a1"]) + half).scaled(hbar * al) \
        + (star(lad["a1*"], lad["a2"]) + half).scaled(hbar * np.conj(al))
    assert (H - want).coeff_norm() <= 1e-14 * H.coeff_norm()


def test_hamiltonian_dimension_mismatch(space, space2):
    with pytest.raises(ValueError):
        hamiltonian(ModelId.oscillator(), space2)
    with pytest.raises(ValueError):
        hamiltonian(ModelId.dho(), space)


# -- dynamics lift -------------------------------------------------------------

def test_lift_toy(space):
    H = lift_dynamics([Poly(1, {(1,): -1.0})], space)
    want = hamiltonian(ModelId.toy(1.0), space)
    assert (H - want).coeff_norm() == 0


def test_lift_zero(space):
    assert lift_dynamics([Poly.zero(1)], space).is_zero()


def test_lift_dho_field(space2):
    w_, g_ = 1.0, 1.0
    X = [Poly(2, {(1, 0): -g_, (0, 1): w_}), Poly(2, {(1, 0): -w_, (0, 1): -g_})]
    H = lift_dynamics(X, space2)
    assert (H - hamiltonian(ModelId.dho(w_, g_), space2)).coeff_norm() == 0


def test_lift_reproduces_flow(space2):
    rng = np.random.default_rng(13)
    X = [Poly(2, {(2, 0): rng.normal(), (0, 1): rng.normal()}),
         Poly(2, {(1, 1): rng.normal()})]
    H = lift_dynamics(X, space2)
    for k in range(2):
        xk = QGFunction.coordinate(space2, k)
        want = QGFunction.from_poly(space2, X[k].embed(4, [0, 1]))
        assert (poisson_bracket(xk, H) - want).coeff_norm() <= 1e-14


# -- oscillator family -----------------------------------------------------------

def test_w0_closed_form(space):
    assert (oscillator_wigner(0, space) - w0(space)).coeff_norm() == 0


def test_w1_closed_form(space):
    # -(1/pi hbar) e^{-(x^2+p^2)/hbar} (1 - 2(x^2+p^2)/hbar)
    W1 = oscillator_wigner(1, space)
    for z in ([0.0, 0.0], [1.0, 0.5], [0.3, -0.7]):
        r2 = z[0] ** 2 + z[1] ** 2
        want = -(1.0 / math.pi) * math.exp(-r2) * (1.0 - 2.0 * r2)
        assert W1.evaluate(z) == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("n", [0, 1, 4])
def test_wigner_ladder_equals_closed(n, space):
    W = oscillator_wigner(n, space)
    Wl = oscillator_wigner_ladder(n, space)
    assert (Wl - W).coeff_norm() <= 1e-10 * W.coeff_norm()


def test_wigner_eigen_residuals(space):
    model = ModelId.oscillator(1.0)
    for n in range(9):
        W = oscillator_wigner(n, space)
        assert eig_residual(model, W, eigenvalue(model, space, n), space) <= 1e-10


def test_wigner_range_check(space):
    with pytest.raises(ValueError):
        oscillator_wigner(13, space)


# -- toy family -------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("hbar", [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e4, 1e5, 1e6])
def test_families_keep_every_monomial_at_any_hbar(hbar):
    # pruning weighs z^e by sqrt(hbar)^|e|: without that, W_8 kept 28 of its
    # 45 monomials at hbar = 100 and integrated to 769.  At hbar >= 1e4 the
    # spectrum of A falls under 2e-4, where an absolute 1e-2 .. 1e-8 eps
    # ladder missed by up to 7.7e-6 and then raised NonIntegrable
    space = VarSpace(1, hbar)
    for n in range(13):
        members = [(oscillator_wigner(n, space), (n + 1) * (n + 2) // 2),
                   (toy_resonant(n, "+", space), n + 1), (toy_resonant(n, "-", space), n + 1)]
        for F, monomials in members:
            assert [len(t.poly.terms) for t in F.terms] == [monomials]
            assert abs(F.gaussian_integral() - 1.0) <= 1e-8


def test_toy_ground_states(space):
    assert (toy_resonant(0, "+", space) - f0_plus(space)).coeff_norm() == 0
    assert (toy_resonant(0, "-", space) - f0_plus(space).conjugate()).coeff_norm() == 0


def test_toy_ground_annihilation(space):
    x = QGFunction.coordinate(space, 0)
    p = QGFunction.coordinate(space, 1)
    F0 = toy_resonant(0, "+", space)
    assert star(p, F0).coeff_norm() == 0
    assert star(F0, x).coeff_norm() == 0
    G0 = toy_resonant(0, "-", space)
    assert star(x, G0).coeff_norm() == 0
    assert star(G0, p).coeff_norm() == 0


@pytest.mark.parametrize("n,sign", [(1, "+"), (1, "-"), (3, "+"), (3, "-")])
def test_toy_ladder_equals_closed(n, sign, space):
    F = toy_resonant(n, sign, space)
    Fl = toy_resonant_ladder(n, sign, space)
    assert (Fl - F).coeff_norm() <= 1e-10 * F.coeff_norm()


def test_toy_eigen_residuals(space):
    model = ModelId.toy(1.0)
    for sign in "+-":
        for n in range(9):
            F = toy_resonant(n, sign, space)
            assert eig_residual(model, F, eigenvalue(model, space, n, sign), space) <= 1e-10


def test_toy_minus_is_conjugate(space):
    for n in range(5):
        lhs = toy_resonant(n, "+", space).conjugate()
        rhs = toy_resonant(n, "-", space)
        assert (lhs - rhs).coeff_norm() == 0


# -- spectra -----------------------------------------------------------------------

def test_spectrum_toy():
    model = ModelId.toy(1.0)
    e = spectrum(model, 0, "+")
    assert e.eigenvalue == pytest.approx(0.5j)
    assert spectrum(model, 2, "-").eigenvalue == pytest.approx(-2.5j)


def test_spectrum_dho_f():
    model = ModelId.dho(1.0, 1.0)
    assert spectrum(model, (0, 0), "+", "F").eigenvalue == pytest.approx(-1j)
    # omega=2, gamma=1: E_01 = 2 - 2i
    m2 = ModelId.dho(2.0, 1.0)
    assert spectrum(m2, (0, 1), "+", "F").eigenvalue == pytest.approx(2.0 - 2.0j)
    assert spectrum(m2, (0, 1), "-", "F").eigenvalue == pytest.approx(2.0 + 2.0j)


def test_spectrum_dho_g():
    model = ModelId.dho(1.0, 1.0)
    assert spectrum(model, (0, 0), family="G").eigenvalue == pytest.approx(1.0)
    assert spectrum(model, (2, 1), family="G").eigenvalue == pytest.approx(4.0 - 1j)


def test_spectrum_oscillator():
    assert spectrum(ModelId.oscillator(1.0), 0).eigenvalue == pytest.approx(0.5)


def test_spectrum_invalid_index():
    with pytest.raises(ValueError):
        spectrum(ModelId.oscillator(1.0), -1)


# -- damped harmonic oscillator families ---------------------------------------------

def test_f00_value(space2):
    F00 = dho_f(0, 0, "+", space2)
    # prefactor fixed by unit integral (and by star idempotency)
    want = np.exp(2j * (0.3 * 0.1 + 0.2 * 0.4)) / math.pi ** 2
    assert F00.evaluate([0.3, 0.2, 0.1, 0.4]) == pytest.approx(want, rel=1e-12)
    assert F00.gaussian_integral() == pytest.approx(1.0, abs=1e-10)


def test_f00_ground_conditions(space2):
    lad = ladder_set(ModelId.dho(), space2)
    F00 = dho_f(0, 0, "+", space2)
    assert star(lad["a1"], F00).coeff_norm() <= 1e-14
    assert star(F00, lad["a2*"]).coeff_norm() <= 1e-14


def test_f00_idempotency_constant(space2):
    F00 = dho_f(0, 0, "+", space2)
    got = star(F00, F00).scaled((2 * math.pi * space2.hbar) ** 2)
    assert (got - F00).coeff_norm() <= 1e-12 * F00.coeff_norm()


def test_dho_f_eigen(space2):
    model = ModelId.dho(1.0, 1.0)
    for (n, m) in ((0, 0), (1, 0), (0, 1), (2, 2), (4, 4)):
        F = dho_f(n, m, "+", space2)
        E = eigenvalue(model, space2, (n, m), "+", "F")
        assert eig_residual(model, F, E, space2) <= 1e-10


def test_dho_f_minus_family(space2):
    model = ModelId.dho(1.0, 1.0)
    F = dho_f(1, 2, "-", space2)
    assert (dho_f(1, 2, "+", space2).conjugate() - F).coeff_norm() == 0
    E = eigenvalue(model, space2, (1, 2), "-", "F")
    assert E == np.conj(eigenvalue(model, space2, (1, 2), "+", "F"))
    assert eig_residual(model, F, E, space2) <= 1e-10


def test_g00_value_and_conditions(space2):
    G00 = dho_g(0, 0, space2)
    want = np.exp(2.0 * (0.3 * 0.4 - 0.2 * 0.1))
    assert G00.evaluate([0.3, 0.2, 0.1, 0.4]) == pytest.approx(want, rel=1e-12)
    lad = ladder_set(ModelId.dho(), space2)
    for k in ("a1", "a2"):
        assert star(lad[k], G00).coeff_norm() <= 1e-14
        assert star(G00, lad[k + "*"]).coeff_norm() <= 1e-14


def test_dho_g_eigen(space2):
    model = ModelId.dho(1.0, 1.0)
    for (n, m) in ((0, 0), (1, 0), (2, 1), (4, 4)):
        G = dho_g(n, m, space2)
        mu = eigenvalue(model, space2, (n, m), "none", "G")
        assert eig_residual(model, G, mu, space2) <= 1e-10


def test_g_conjugation_pairing(space2):
    assert (dho_g(1, 0, space2).conjugate() - dho_g(0, 1, space2)).coeff_norm() == 0
    assert (dho_g(2, 1, space2).conjugate() - dho_g(1, 2, space2)).coeff_norm() == 0


def test_dho_ccrs(space2):
    lad = ladder_set(ModelId.dho(), space2)
    one = QGFunction.constant(space2, 1.0)
    zero_pairs = (("a1", "a2"), ("a1", "a1*"), ("a2", "a2*"))
    for u, v in zero_pairs:
        assert moyal_bracket(lad[u], lad[v]).coeff_norm() <= 1e-12
    for u, v in (("a1", "a2*"), ("a2", "a1*")):
        assert (moyal_bracket(lad[u], lad[v]) - one).coeff_norm() <= 1e-12


# -- complex scaling -----------------------------------------------------------------

def test_conjugation_identity_at_zero(space):
    f = oscillator_wigner(2, space)
    assert (conjugation_by_V(f, 0.0) - f).coeff_norm() == 0


def test_conjugation_quadratic_map(space):
    g = 1.0
    f = QGFunction.from_poly(space, Poly(2, {(0, 2): g / 2, (2, 0): -g / 2}))
    got = conjugation_by_V(f, math.pi / 4)
    want = QGFunction.from_poly(space, Poly(2, {(0, 2): 0.5j * g, (2, 0): 0.5j * g}))
    assert (got - want).coeff_norm() <= 1e-14


def test_conjugation_generator_orientation(space):
    X = QGFunction.coordinate(space, 0)
    lam = 0.3
    got = conjugation_by_V(X, lam)
    assert (got - X.scaled(np.exp(-1j * lam))).coeff_norm() <= 1e-14


@pytest.mark.parametrize("n", [0, 1, 3, 6])
def test_complex_scaling_maps_wigner_to_resonant(n, space):
    M = hyperbolic_frame_matrix()
    W = oscillator_wigner(n, space)
    for sign, lam in (("+", -math.pi / 4), ("-", math.pi / 4)):
        got = conjugation_by_V(W, lam).substitute_linear(M)
        ref = toy_resonant(n, sign, space)
        assert (got - ref).coeff_norm() <= 1e-10 * ref.coeff_norm()


# -- koopman ---------------------------------------------------------------------

def test_koopman_zero_modes(space):
    H = hamiltonian(ModelId.oscillator(), space)
    for n in range(5):
        assert koopman_apply(H, oscillator_wigner(n, space)).coeff_norm() <= 1e-12
    H = hamiltonian(ModelId.toy(), space)
    for n in range(5):
        for sign in "+-":
            assert koopman_apply(H, toy_resonant(n, sign, space)).coeff_norm() <= 1e-12
    xp = QGFunction.from_poly(space, Poly(2, {(1, 1): 1.0}))
    assert koopman_apply(H, xp).coeff_norm() == 0


# -- resonant-pair transform -----------------------------------------------------

def test_transform_gaussian_pair_gives_w0(space):
    psi = WaveFunction.oscillator_ground(space.hbar)
    T = wigner_pair_transform(psi, psi, space)
    ref = oscillator_wigner(0, space)
    assert (T - ref).coeff_norm() <= 1e-10 * ref.coeff_norm()


def test_transform_const_delta_gives_f0(space):
    T = wigner_pair_transform(WaveFunction.constant(1), WaveFunction.delta((0,)), space)
    ref = toy_resonant(0, "+", space)
    assert (T - ref).coeff_norm() <= 1e-10 * ref.coeff_norm()


def test_transform_deltadelta_const_gives_f00(space2):
    T = wigner_pair_transform(WaveFunction.delta((0, 0)), WaveFunction.constant(2), space2)
    ref = dho_f(0, 0, "+", space2)
    assert (T - ref).coeff_norm() <= 1e-10 * ref.coeff_norm()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_transform_resonant_pairs(n, space):
    # kappa_n = n! (i hbar)^n relates the raw transform to the family convention
    T = wigner_pair_transform(WaveFunction.toy_plus(n), WaveFunction.toy_minus(n, space.hbar), space)
    ref = toy_resonant(n, "+", space).scaled(math.factorial(n) * (1j * space.hbar) ** n)
    assert (T - ref).coeff_norm() <= 1e-10 * ref.coeff_norm()


def test_transform_delta_delta_rejected(space):
    with pytest.raises(UnsupportedPair):
        wigner_pair_transform(WaveFunction.delta((0,)), WaveFunction.delta((1,)), space)


def test_transform_nonstationary_pair(space):
    # x^n against x^n (same resonant branch) is the non-stationary combination;
    # the transform still lands in the class and is polynomial x delta-free
    T = wigner_pair_transform(WaveFunction.toy_plus(1), WaveFunction.toy_minus(0, space.hbar), space)
    assert not T.is_zero()

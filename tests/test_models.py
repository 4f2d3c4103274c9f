"""Model constructors: Hamiltonians, ladder families, spectra, complex
scaling, and the resonant-pair transform."""

import math

import numpy as np
import pytest

from conftest import dho_ladder, f0_plus, w0
from mqds.algebra import QGFunction, QGTerm, QuadExponent, VarSpace, poisson_bracket
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
    al = complex(model.omega, -model.gamma)     # the complex frequency w - i g
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
    assert lift_dynamics([Poly(1)], space).is_zero()


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
        want = QGFunction.from_poly(space2, X[k].affine_sub(np.eye(2, 4)))
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


def ladder_cases(*rows):
    """Each row of parameters at hbar in {1e-3, 1, 100}; a case at hbar = 1
    is named by its row alone."""
    def case(row, hbar):
        name = "-".join(map(str, row)) + ("" if hbar == 1.0 else f"-hbar={hbar:g}")
        return pytest.param(*row, hbar, id=name)
    return [case(row, hbar) for row in rows for hbar in (1e-3, 1.0, 100.0)]


# n = 12 is the top of the index range
@pytest.mark.parametrize("n,hbar", ladder_cases((0,), (1,), (4,), (12,)))
def test_wigner_ladder_equals_closed(n, hbar):
    space = VarSpace(1, hbar)
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


@pytest.mark.parametrize("n,sign,hbar", ladder_cases(*((n, sign) for n in (1, 3, 12) for sign in "+-")))
def test_toy_ladder_equals_closed(n, sign, hbar):
    space = VarSpace(1, hbar)
    F = toy_resonant(n, sign, space)
    Fl = toy_resonant_ladder(n, sign, space)
    assert (Fl - F).coeff_norm() <= 1e-10 * F.coeff_norm()


def test_toy_builders_reject_a_sign_the_family_lacks(space):
    # the ladder builder used to build the minus member for any sign but "+"
    for build in (toy_resonant, toy_resonant_ladder):
        for sign in ("x", "none", "", "+-"):
            with pytest.raises(ValueError, match="signs"):
                build(2, sign, space)


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
    assert spectrum(model, 0, "+") == pytest.approx(0.5j)
    assert spectrum(model, 2, "-") == pytest.approx(-2.5j)


def test_spectrum_dho_f():
    model = ModelId.dho(1.0, 1.0)
    assert spectrum(model, (0, 0), "+", "F") == pytest.approx(-1j)
    # omega=2, gamma=1: E_01 = 2 - 2i
    m2 = ModelId.dho(2.0, 1.0)
    assert spectrum(m2, (0, 1), "+", "F") == pytest.approx(2.0 - 2.0j)
    assert spectrum(m2, (0, 1), "-", "F") == pytest.approx(2.0 + 2.0j)


def test_spectrum_dho_g():
    model = ModelId.dho(1.0, 1.0)
    assert spectrum(model, (0, 0), family="G") == pytest.approx(1.0)
    assert spectrum(model, (2, 1), family="G") == pytest.approx(4.0 - 1j)


def test_spectrum_oscillator():
    assert spectrum(ModelId.oscillator(1.0), 0) == pytest.approx(0.5)


def test_spectrum_rejects_a_sign_the_family_lacks():
    for model, indices in ((ModelId.toy(), 1), (ModelId.dho(), (1, 0))):
        for sign in ("none", "", "+-"):
            with pytest.raises(ValueError, match="signs"):
                spectrum(model, indices, sign)
    # the oscillator and the G family have no sign to check
    assert spectrum(ModelId.oscillator(), 1, "none") == 1.5
    assert spectrum(ModelId.dho(), (1, 0), "none", "G") == 2.0 - 1j


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


@pytest.mark.parametrize("hbar", [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0])
def test_dho_closed_forms_match_the_ladder(hbar):
    # the ladder F carries its normalizing division's rounding, up to 3.4e-11;
    # the closed forms' integrals read within 1.3e-9 of 1 (F66 at hbar = 1e-2)
    sp = VarSpace(2, hbar)
    for n in range(7):
        for m in range(7):
            F, G = dho_f(n, m, "+", sp), dho_g(n, m, sp)
            assert (dho_ladder("F", n, m, sp) - F).coeff_norm() <= 1e-10 * F.coeff_norm(), (n, m)
            assert (dho_ladder("G", n, m, sp) - G).coeff_norm() <= 1e-13 * G.coeff_norm(), (n, m)
            assert abs(F.gaussian_integral() - 1) <= 1e-8, (n, m)


@pytest.mark.parametrize("hbar", [1e-3, 1.0, 100.0])
def test_dho_f66_is_idempotent(hbar):
    # (2 pi hbar)^2 F66 * F66 = F66; the ladder build met it only to 3.4e-11
    sp = VarSpace(2, hbar)
    F = dho_f(6, 6, "+", sp)
    got = star(F, F).scaled((2 * math.pi * hbar) ** 2)
    assert (got - F).coeff_norm() <= 1e-13 * F.coeff_norm()


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


@pytest.mark.parametrize("n", range(13))
def test_transform_resonant_pairs(n):
    # kappa_n = n! (i hbar)^n relates the raw transform to the family
    # convention; the reversed pair, with its delta atom in psi1, gives the
    # minus family with conj(kappa_n).  Both read at most 5.2e-16.
    for hbar in (1e-3, 1.0, 100.0):
        sp = VarSpace(1, hbar)
        plus, minus = WaveFunction.toy_plus(n), WaveFunction.toy_minus(n, hbar)
        for (psi1, psi2), sign, kappa in (((plus, minus), "+", (1j * hbar) ** n),
                                          ((minus, plus), "-", (-1j * hbar) ** n)):
            T = wigner_pair_transform(psi1, psi2, sp)
            ref = toy_resonant(n, sign, sp).scaled(math.factorial(n) * kappa)
            assert (T - ref).coeff_norm() <= 1e-14 * ref.coeff_norm(), (hbar, sign)


def hermite_state(n, hbar):
    """(pi hbar)^(-1/4) (2^n n!)^(-1/2) H_n(x/sqrt(hbar)) e^{-x^2/2 hbar} as one QGTerm."""
    h = np.polynomial.hermite.herm2poly([0] * n + [1])
    norm = (math.pi * hbar) ** -0.25 / math.sqrt(2.0 ** n * math.factorial(n))
    poly = Poly(1, {(k,): norm * c * hbar ** (-k / 2) for k, c in enumerate(h) if c})
    return WaveFunction(1, smooth=[QGTerm(poly, QuadExponent([[1.0 / hbar]], [0.0]))])


@pytest.mark.parametrize("hbar", [1e-3, 1.0, 100.0])
def test_transform_smooth_pairs_of_hermite_states(hbar):
    # T(psi_n, psi_n) is the Wigner function W_n (worst 3.5e-13); T(psi_n, psi_m)
    # is a two-sided eigenfunction whose first factor sets the left eigenvalue
    # (worst 3.2e-16; with E_n and E_m swapped it reads 0.89)
    sp = VarSpace(1, hbar)
    model = ModelId.oscillator()
    for n in range(13):
        psi = hermite_state(n, hbar)
        ref = oscillator_wigner(n, sp)
        assert (wigner_pair_transform(psi, psi, sp) - ref).coeff_norm() <= 1e-12 * ref.coeff_norm(), n
    H = hamiltonian(model, sp)
    for n in range(5):
        for m in range(5):
            T = wigner_pair_transform(hermite_state(n, hbar), hermite_state(m, hbar), sp)
            En, Em = eigenvalue(model, sp, n), eigenvalue(model, sp, m)
            scale = max(abs(En), abs(Em)) * T.coeff_norm()
            assert (star(H, T) - T.scaled(En)).coeff_norm() <= 1e-14 * scale, (n, m)
            assert (star(T, H) - T.scaled(Em)).coeff_norm() <= 1e-14 * scale, (n, m)


def test_transform_delta_delta_rejected(space):
    with pytest.raises(UnsupportedPair):
        wigner_pair_transform(WaveFunction.delta((0,)), WaveFunction.delta((1,)), space)


def test_transform_nonstationary_pair(space):
    # x^n against x^n (same resonant branch) is the non-stationary combination;
    # the transform still lands in the class and is polynomial x delta-free
    T = wigner_pair_transform(WaveFunction.toy_plus(1), WaveFunction.toy_minus(0, space.hbar), space)
    assert not T.is_zero()


def test_dho_f_rejects_a_sign_the_family_lacks(space2):
    # any sign but "-" used to build the + family
    for sign in ("none", "", "+-"):
        with pytest.raises(ValueError, match="signs"):
            dho_f(1, 0, sign, space2)

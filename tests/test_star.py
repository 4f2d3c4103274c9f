"""Star-product contracts: terminating series, Gaussian composition, star
exponentials, evolution, and the quadrature oracle.

The composition rule is cross-validated against two independent references:
the exact plane-wave law  e^{b1.z} * e^{b2.z} = e^{(i hbar/2) b1.J.b2}
e^{(b1+b2).z}  (a direct consequence of the bidifferential series), and the
twisted-integral quadrature oracle.
"""

import importlib
import math

import numpy as np
import pytest

from conftest import dho_ladder, random_gaussian, random_polynomial, w0
from mqds.algebra import QGFunction, QGTerm, QuadExponent, VarSpace, gaussian_test, poisson_bracket
from mqds.gausspoly import (CompositionContext, GaussianCompositionSingular, MomentMemo,
                            integrate_partial, integrate_poly_exp, moments_poly, moments_scalar)
from mqds.models import ModelId, dho_f, dho_g, hamiltonian, oscillator_wigner, toy_resonant
from mqds.poly import Poly, multi_factorial, multi_indices, unpack
from mqds.star import (EvolutionSingular, OracleNeedsDamping, OracleNotConverged, _dampened,
                       _series_term_pair, _twisted_kernel, _twisted_quadrature,
                       classical_flow_matrix, damped_pair, evolve, gauss_legendre, moyal_bracket,
                       quadrature_star_oracle, star, star_exp_closed,
                       star_exp_closed_taylor, star_exp_series)


def ladder_a(space):
    s = 1.0 / math.sqrt(2.0 * space.hbar)
    return QGFunction.from_poly(space, Poly.linear([s, 1j * s]))


# -- basic star products -------------------------------------------------------

@pytest.mark.parametrize("hbar", [1.0, 0.7])
def test_x_star_p(hbar):
    space = VarSpace(1, hbar)
    x = QGFunction.coordinate(space, 0)
    p = QGFunction.coordinate(space, 1)
    want = QGFunction.from_poly(space, Poly(2, {(1, 1): 1.0, (0, 0): 0.5j * hbar}))
    assert (star(x, p) - want).coeff_norm() < 1e-15


@pytest.mark.parametrize("hbar", [1.0, 0.3])
def test_canonical_commutator(hbar):
    space = VarSpace(1, hbar)
    x = QGFunction.coordinate(space, 0)
    p = QGFunction.coordinate(space, 1)
    want = QGFunction.constant(space, 1j * hbar)
    assert (moyal_bracket(x, p) - want).coeff_norm() < 1e-15


def test_fock_vacuum(space):
    a = ladder_a(space)
    W0 = w0(space)
    assert star(a, W0).coeff_norm() == 0
    assert star(W0, a.conjugate()).coeff_norm() == 0


def test_w0_idempotent(space):
    W0 = w0(space)
    got = star(W0, W0)
    want = W0.scaled(1.0 / (2 * math.pi * space.hbar))
    assert (got - want).coeff_norm() <= 1e-14


def test_plane_wave_composition_law(space):
    rng = np.random.default_rng(17)
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for _ in range(5):
        b1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        b2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        f = QGFunction.from_exponent(space, np.zeros((2, 2)), b1)
        g = QGFunction.from_exponent(space, np.zeros((2, 2)), b2)
        phase = np.exp(0.5j * space.hbar * (b1 @ J @ b2))
        want = QGFunction.from_exponent(space, np.zeros((2, 2)), b1 + b2, coeff=phase)
        assert (star(f, g) - want).coeff_norm() <= 1e-12 * abs(phase)


def test_packed_memos_match_moments_poly(space2):
    # at a fixed w the mean lin @ w + shift is a number, and the table's
    # polynomial evaluated at w is the scalar moment
    rng = np.random.default_rng(29)
    (t1,), (t2,) = random_gaussian(space2, rng).terms, random_gaussian(space2, rng).terms
    ctx = CompositionContext(2, t1.expo.A, t1.expo.b, t2.expo.A, t2.expo.b)
    needed = list(multi_indices(4, 4))
    for Sigma, (lin, shift) in ((ctx.G_uu, ctx._u_form), (ctx.G_vv, ctx._v_form)):
        keys, coeffs, sizes = moments_poly(Sigma, lin, shift, ctx.bits, needed, MomentMemo())
        ends = np.cumsum(sizes).tolist()
        packed = {alpha: (keys[end - n:end], coeffs[end - n:end])
                  for alpha, n, end in zip(needed, sizes.tolist(), ends)}
        for _ in range(3):
            w = rng.normal(size=lin.shape[1]) + 1j * rng.normal(size=lin.shape[1])
            want = moments_scalar(Sigma, lin @ w + shift, needed)
            for alpha in needed:
                keys, coeffs = packed[alpha]
                got = coeffs @ np.prod(w ** unpack(keys, lin.shape[1], ctx.bits), axis=1)
                assert abs(got - want[alpha]) <= 1e-12 * max(abs(want[alpha]), 1.0), alpha


@pytest.mark.parametrize("n_dof, out_idx", [(1, [0]), (1, [1]), (2, [1]), (2, [3]), (2, [0, 1])],
                         ids=["N1-x", "N1-p", "N2-x2", "N2-p2", "N2-xblock"])
def test_partial_integral_then_rest_is_whole_integral(n_dof, out_idx):
    # Fubini: integrating out out_idx first, then the rest, gives the whole integral
    rng = np.random.default_rng(31 + 7 * n_dof + sum(out_idx))
    (term,) = random_gaussian(VarSpace(n_dof, 1.0), rng).terms
    d = 2 * n_dof
    poly = Poly(d, {tuple(rng.integers(0, 4, size=d)): complex(*rng.normal(size=2)) for _ in range(6)})
    A, b, c = term.expo.A, term.expo.b, 0.2 - 0.1j
    want = integrate_poly_exp(A, b, c, poly)
    A2, b2, c2, poly2 = integrate_partial(A, b, c, poly, out_idx)
    assert poly2.dim == d - len(out_idx)
    got = integrate_poly_exp(A2, b2, c2, poly2)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_partial_integral_beyond_packing_width_raises():
    # 8 kept variables pack 7 bits each: degree 128 does not fit
    A = np.eye(9)
    with pytest.raises(ValueError, match="packed"):
        integrate_partial(A, np.zeros(9), 0.0, Poly(9, {(0,) * 8 + (128,): 1.0}), [8])
    with pytest.raises(ValueError, match="packed"):
        integrate_partial(A, np.zeros(9), 0.0, Poly(9, {(127,) + (0,) * 7 + (1,): 1.0}), [8])


def test_composition_beyond_packing_width_raises(space2):
    ctx = CompositionContext(2, np.eye(4), np.zeros(4), np.eye(4), np.zeros(4))
    top = (1 << ctx.bits) - 1
    with pytest.raises(ValueError, match="packed"):
        ctx.compose(Poly(4, {(top, 0, 0, 0): 1.0}), Poly(4, {(0, 1, 0, 0): 1.0}))
    assert not ctx._mu_memo and not ctx._mv_memo


def test_singular_composition_raises(space):
    # opposite pure phases at the resonant strength have no composed Gaussian
    with pytest.raises(GaussianCompositionSingular):
        star(toy_resonant(0, "+", space), toy_resonant(0, "-", space))


def test_defective_singular_composition_raises(space2):
    # F00+ * G00: the composed form has rank 6 of 8 and is defective, so its
    # zero eigenvalues come out near 1e-8; its singular values show it
    with pytest.raises(GaussianCompositionSingular):
        star(dho_f(0, 0, "+", space2), dho_g(0, 0, space2))


# -- terminating series ------------------------------------------------------------

def reference_series(f, g, bound):
    """The bidifferential sum one (alpha, beta) at a time, from the function-level
    derivative and pointwise product:  sum over |a| + |b| <= bound of
    (i hbar/2)^{|a|+|b|} (-1)^{|b|} / (a! b!) (d_x^a d_p^b f)(d_p^a d_x^b g)."""
    n, hbar = f.space.n_dof, f.space.hbar
    out = QGFunction.zero(f.space)
    for alpha in multi_indices(n, bound):
        for beta in multi_indices(n, bound - sum(alpha)):
            left, right = f, g
            for k in range(n):
                for _ in range(alpha[k]):
                    left, right = left.differentiate(k), right.differentiate(n + k)
                for _ in range(beta[k]):
                    left, right = left.differentiate(n + k), right.differentiate(k)
            coeff = (0.5j * hbar) ** (sum(alpha) + sum(beta)) * (-1.0) ** sum(beta)
            coeff /= multi_factorial(alpha) * multi_factorial(beta)
            out = out + left.mul(right).scaled(coeff)
    return out


def test_differentiate_is_d_plus_gradient_of_exponent(space, space2):
    # (d_j + d_j q) P, with d_j P by exponent bookkeeping and (d_j q) P = Poly.mul
    for sp, seed in ((space, 3), (space2, 5)):
        rng = np.random.default_rng(seed)
        for _ in range(4):
            (t,) = (random_gaussian(sp, rng) if rng.random() < 0.7
                    else random_polynomial(sp, rng)).terms
            for j in range(sp.dim):
                want = Poly(sp.dim)
                for e, c in t.poly.terms.items():
                    if e[j]:
                        want = want + Poly.monomial(sp.dim, e[:j] + (e[j] - 1,) + e[j + 1:], e[j] * c)
                want = want + t.poly.mul(Poly.linear(-t.expo.A[j], t.expo.b[j]))
                got = t.diff(j)
                assert got.expo is t.expo
                assert (got.poly - want).max_abs_coeff() <= 1e-15 * max(1.0, want.max_abs_coeff())


@pytest.mark.parametrize("n_dof", [1, 2, 3])
@pytest.mark.parametrize("kind", ["poly*gauss", "gauss*poly", "poly*poly"])
def test_packed_series_matches_reference_sum(n_dof, kind):
    space = VarSpace(n_dof, 0.7)
    rng = np.random.default_rng(101 + 7 * n_dof + len(kind))
    for _ in range(3 if n_dof < 3 else 1):      # the reference sum is slow at N = 3
        poly = random_polynomial(space, rng, deg=4 - n_dof)
        other = random_polynomial(space, rng, deg=2) if kind == "poly*poly" else \
            random_gaussian(space, rng) + random_gaussian(space, rng)
        f, g = (other, poly) if kind == "gauss*poly" else (poly, other)
        bound = max(t.poly.degree() for t in poly.terms)
        got, want = star(f, g), reference_series(f, g, bound)
        assert (got - want).coeff_norm() <= 1e-13 * want.coeff_norm()


@pytest.mark.parametrize("n_dof", [1, 2, 3])
def test_series_of_one_variable_power_factorizes(n_dof):
    # x1^20 * e^{-|z|^2/2} is the N = 1 product times the other variables'
    # Gaussian; the N = 1 product is checked against the reference sum
    hbar = 0.7
    one = VarSpace(1, hbar)
    x20 = QGFunction.from_poly(one, Poly.monomial(2, (20, 0)))
    g1 = QGFunction.from_exponent(one, np.eye(2))
    want1 = reference_series(x20, g1, 20)
    got1 = star(x20, g1)
    assert (got1 - want1).coeff_norm() <= 1e-13 * want1.coeff_norm()

    space = VarSpace(n_dof, hbar)
    x = [0] * space.dim
    x[0] = 20
    f = QGFunction.from_poly(space, Poly.monomial(space.dim, tuple(x)))
    got = star(f, QGFunction.from_exponent(space, np.eye(space.dim)))
    rng = np.random.default_rng(17)
    for z in rng.uniform(-2.0, 2.0, size=(5, space.dim)):
        rest = np.delete(z, [0, n_dof])
        want = got1.evaluate([z[0], z[n_dof]]) * np.exp(-0.5 * rest @ rest)
        assert abs(got.evaluate(z) - want) <= 1e-12 * abs(want)


def test_series_caps_drop_only_empty_visits(monkeypatch):
    # the per-direction caps skip only empty visits: the uncapped loop over
    # every (alpha, beta) up to the bound gives the same terms bit for bit
    space = VarSpace(2, 0.7)
    rng = np.random.default_rng(19)
    pairs = []
    for _ in range(4):
        poly = random_polynomial(space, rng, deg=2)
        pairs += [(poly, random_gaussian(space, rng)), (random_gaussian(space, rng), poly),
                  (poly, random_polynomial(space, rng, deg=2))]
    capped = [star(f, g) for f, g in pairs]
    star_module = importlib.import_module("mqds.star")      # mqds.star is also the function
    monkeypatch.setattr(star_module, "multi_indices", lambda n, top, caps: multi_indices(n, top))
    for (f, g), got in zip(pairs, capped):
        want = star(f, g)
        assert [t.poly.terms for t in got.terms] == [t.poly.terms for t in want.terms]


def test_series_gives_one_term_per_term_pair(space, space2):
    rng = np.random.default_rng(13)
    for sp in (space, space2):
        (tp,), (tg,) = random_polynomial(sp, rng).terms, random_gaussian(sp, rng).terms
        for t1, t2 in ((tp, tg), (tg, tp), (tp, tp)):
            (out,) = _series_term_pair(sp, t1, t2)
            assert out.expo.close_to(t1.mul(t2).expo)
    # a * W0 = 0 cancels exactly, and gives no term at all
    (ta,), (tw,) = ladder_a(space).terms, w0(space).terms
    assert _series_term_pair(space, ta, tw) == []


def test_series_beyond_packing_width_raises():
    space = VarSpace(4, 1.0)                   # 8 variables: 7 bits, degree <= 127
    top = Poly.monomial(8, (64,) + (0,) * 7)
    gauss = QuadExponent(np.eye(8), np.zeros(8))
    poly = QGFunction.from_poly(space, top)
    with pytest.raises(ValueError, match="packed"):
        star(poly, QGFunction(space, [QGTerm(top, gauss)]))     # x^64 * x^64 e^q: degree 128
    with pytest.raises(ValueError, match="packed"):
        star(poly, poly)
    with pytest.raises(ValueError, match="packed"):
        QGTerm(Poly.monomial(8, (127,) + (0,) * 7), gauss).diff(0)
    assert QGTerm(Poly.monomial(8, (126,) + (0,) * 7), gauss).diff(0).poly.degree() == 127


# -- moyal bracket ----------------------------------------------------------------

def test_ladder_ccr(space):
    a = ladder_a(space)
    one = QGFunction.constant(space, 1.0)
    assert (moyal_bracket(a, a.conjugate()) - one).coeff_norm() <= 1e-15


def test_wigner_stationarity(space):
    H = hamiltonian(ModelId.oscillator(), space)
    for n in range(5):
        Wn = oscillator_wigner(n, space)
        assert moyal_bracket(H, Wn).coeff_norm() <= 1e-12 * Wn.coeff_norm()


def test_moyal_bracket_is_poisson_for_quadratic_h(space):
    H = hamiltonian(ModelId.oscillator(), space)
    rng = np.random.default_rng(23)
    for _ in range(4):
        f = random_gaussian(space, rng)
        lhs = moyal_bracket(H, f)
        rhs = poisson_bracket(H, f).scaled(1j * space.hbar)
        assert (lhs - rhs).coeff_norm() <= 1e-12 * max(1.0, rhs.coeff_norm())


def test_quadratic_classical_limit(space):
    # for polynomials of degree <= 2 the bracket is exactly i hbar {f, g}
    rng = np.random.default_rng(29)
    for _ in range(4):
        f = random_polynomial(space, rng, deg=1)
        g = random_polynomial(space, rng, deg=1)
        f2 = f.mul(f)
        lhs = moyal_bracket(f2, g)
        rhs = poisson_bracket(f2, g).scaled(1j * space.hbar)
        assert (lhs - rhs).coeff_norm() <= 1e-12 * max(1.0, rhs.coeff_norm())


# -- associativity / conjugation ---------------------------------------------------

def test_associativity_random(space):
    rng = np.random.default_rng(31)
    for _ in range(6):
        fs = [random_gaussian(space, rng) if rng.random() < 0.6
              else random_polynomial(space, rng) for _ in range(3)]
        lhs = star(star(fs[0], fs[1]), fs[2])
        rhs = star(fs[0], star(fs[1], fs[2]))
        scale = fs[0].coeff_norm() * fs[1].coeff_norm() * fs[2].coeff_norm()
        assert (lhs - rhs).coeff_norm() <= 1e-9 * scale


def test_star_bilinear(space):
    rng = np.random.default_rng(59)
    f, g, h = (random_gaussian(space, rng) for _ in range(3))
    a, b = 1.5 - 0.5j, -0.75 + 2.0j
    lhs = star(f.scaled(a) + g.scaled(b), h)
    rhs = star(f, h).scaled(a) + star(g, h).scaled(b)
    assert (lhs - rhs).coeff_norm() <= 1e-12 * max(1.0, rhs.coeff_norm())
    lhs = star(h, f.scaled(a) + g.scaled(b))
    rhs = star(h, f).scaled(a) + star(h, g).scaled(b)
    assert (lhs - rhs).coeff_norm() <= 1e-12 * max(1.0, rhs.coeff_norm())


def test_conjugation_antihomomorphism(space):
    rng = np.random.default_rng(37)
    for _ in range(5):
        f = random_gaussian(space, rng)
        g = random_gaussian(space, rng)
        lhs = star(f, g).conjugate()
        rhs = star(g.conjugate(), f.conjugate())
        assert (lhs - rhs).coeff_norm() <= 1e-12 * (f.coeff_norm() * g.coeff_norm())


# -- star exponentials ---------------------------------------------------------------

def test_series_low_orders(space):
    H = hamiltonian(ModelId.oscillator(1.3), space)
    coeffs = star_exp_series(H, 2)
    one = QGFunction.constant(space, 1.0)
    assert (coeffs[0] - one).coeff_norm() == 0
    assert (coeffs[1] - H.scaled(-1j / space.hbar)).coeff_norm() <= 1e-15


def test_series_requires_polynomial(space):
    with pytest.raises(ValueError):
        star_exp_series(w0(space), 4)
    H = hamiltonian(ModelId.oscillator(), space)
    with pytest.raises(ValueError):
        star_exp_series(H, 17)


DHOS = [ModelId.dho(1.0, 1.0), ModelId.dho(1.3, 0.4)]


@pytest.mark.parametrize("model", [ModelId.oscillator(1.0), ModelId.oscillator(1.7),
                                   ModelId.toy(1.0), ModelId.toy(0.6), *DHOS])
def test_series_matches_closed_taylor(model):
    space = VarSpace(model.n_dof, 1.0)
    H = hamiltonian(model, space)
    series = star_exp_series(H, 8)
    closed = star_exp_closed_taylor(model, 8, space)
    for k in range(9):
        scale = max(series[k].coeff_norm(), 1e-300)
        assert (series[k] - closed[k]).coeff_norm() <= 1e-10 * scale


def test_closed_form_at_zero(space):
    one = QGFunction.constant(space, 1.0)
    for model in (ModelId.oscillator(), ModelId.toy()):
        U = star_exp_closed(model, 0.0, space)
        assert (U - one).coeff_norm() <= 1e-15


def test_closed_form_damped_structure(space):
    # sech(g t/2) prefactor and tanh(g t/2) frequency in the exponent
    g, t = 0.8, 0.9
    U = star_exp_closed(ModelId.toy(g), t, space)
    z = np.array([0.7, -0.4])
    want = (1.0 / math.cosh(g * t / 2)) * np.exp(2j * math.tanh(g * t / 2) * z[0] * z[1])
    assert U.evaluate(z) == pytest.approx(want, rel=1e-12)


def test_closed_form_singularity(space):
    with pytest.raises(EvolutionSingular):
        star_exp_closed(ModelId.oscillator(1.0), math.pi, space)


def test_group_property_series(space):
    # U(t) * U(-t) = 1 order by order through t^6
    H = hamiltonian(ModelId.oscillator(), space)
    series = star_exp_series(H, 6)
    for j in range(7):
        acc = QGFunction.zero(space)
        for a in range(j + 1):
            acc = acc + star(series[a], series[j - a]).scaled((-1.0) ** (j - a))
        want = QGFunction.constant(space, 1.0) if j == 0 else QGFunction.zero(space)
        assert (acc - want).coeff_norm() <= 1e-12


# -- evolution -------------------------------------------------------------------

def test_evolve_identity_at_zero(space):
    f = random_gaussian(space, np.random.default_rng(41))
    got = evolve(f, ModelId.oscillator(), 0.0)
    assert (got - f).coeff_norm() <= 1e-12 * f.coeff_norm()


def test_evolve_stationary_wigner(space):
    model = ModelId.oscillator(1.0)
    for n in (0, 2, 4):
        Wn = oscillator_wigner(n, space)
        for t in (0.3, 1.1):
            got = evolve(Wn, model, t)
            assert (got - Wn).coeff_norm() <= 1e-10 * Wn.coeff_norm()


@pytest.mark.parametrize("model", [ModelId.oscillator(1.0), ModelId.oscillator(0.7),
                                   ModelId.toy(1.0), ModelId.toy(1.4), *DHOS])
def test_evolve_is_classical_transport(model):
    space = VarSpace(model.n_dof, 1.0)
    f = gaussian_test(space, 0.8, center=[1.0, 0.5, -0.4, 0.3][:space.dim])
    for t in (0.1, 0.5):
        got = evolve(f, model, t)
        want = f.substitute_linear(classical_flow_matrix(model, -t))
        assert (got - want).coeff_norm() <= 1e-9 * f.coeff_norm()


@pytest.mark.parametrize("hbar", [1.0, 0.1])
@pytest.mark.parametrize("model", DHOS, ids=["dho_1_1", "dho_1.3_0.4"])
def test_dho_group_law(model, hbar):
    # U(t) * U(-t) = 1: the dho has no singular times, cosh((g +- i w) t/2) != 0
    space = VarSpace(2, hbar)
    one = QGFunction.constant(space, 1.0)
    for t in (0.4, 2.5):
        U = star(star_exp_closed(model, t, space), star_exp_closed(model, -t, space))
        assert (U - one).coeff_norm() <= 1e-12


@pytest.mark.parametrize("hbar", [1.0, 0.1])
@pytest.mark.parametrize("model", DHOS, ids=["dho_1_1", "dho_1.3_0.4"])
def test_dho_families_are_stationary(model, hbar):
    space = VarSpace(2, hbar)
    for f in (dho_f(1, 1, "+", space), dho_f(2, 1, "-", space), dho_g(1, 0, space)):
        got = evolve(f, model, 0.4)
        assert (got - f).coeff_norm() <= 1e-12 * f.coeff_norm()


def test_evolved_gaussian_center_rotates(space):
    # center of a displaced Gaussian follows the classical trajectory
    from mqds.algebra import gaussian_test
    x0, p0, t = 1.0, 0.5, 0.6
    f = gaussian_test(space, 0.8, center=[x0, p0])
    got = evolve(f, ModelId.oscillator(1.0), t)
    xc = x0 * math.cos(t) + p0 * math.sin(t)
    pc = p0 * math.cos(t) - x0 * math.sin(t)
    term = got.terms[0]
    center = np.linalg.solve(term.expo.A, term.expo.b)
    assert center.real == pytest.approx([xc, pc], abs=1e-10)


# -- quadrature oracle -----------------------------------------------------------

def test_oracle_x_star_p(space):
    # x and p do not decay: the oracle checks x e^{-0.4|z|^2} * p e^{-0.4|z|^2}
    x = QGFunction.coordinate(space, 0)
    p = QGFunction.coordinate(space, 1)
    with pytest.raises(OracleNeedsDamping, match="damped_pair"):
        quadrature_star_oracle(x, p, [1.0, 1.0])
    f, g, eps = damped_pair(x, p)
    assert eps == 0.4
    closed = star(f, g).evaluate([1.0, 1.0])
    assert abs(quadrature_star_oracle(f, g, [1.0, 1.0]) - closed) <= 1e-12 * abs(closed)


def test_oracle_w0_idempotency_value(space):
    W0 = w0(space)
    val = quadrature_star_oracle(W0, W0, [0.0, 0.0])
    assert val == pytest.approx(1.0 / (2 * math.pi**2), rel=1e-8)


def test_oracle_matches_closed_form_random(space):
    rng = np.random.default_rng(43)
    for _ in range(3):
        f = random_gaussian(space, rng)
        g = random_gaussian(space, rng)
        z = rng.uniform(-1.0, 1.0, size=2)
        closed = star(f, g).evaluate(z)
        quad = quadrature_star_oracle(f, g, z)
        assert abs(closed - quad) <= 1e-6 * max(abs(closed), 1e-9)


def test_oracle_refinement_error_decreases(space):
    # spacing halves across the ladder; errors must fall monotonically
    # (grids kept coarse enough to stay above the rounding floor)
    from mqds.star import _twisted_quadrature
    rng = np.random.default_rng(47)
    f = random_gaussian(space, rng)
    g = random_gaussian(space, rng)
    z = np.array([0.3, -0.5])
    ref = star(f, g).evaluate(z)
    errs = [abs(_twisted_quadrature(f, g, z, 8.0, pts) - ref) for pts in (16, 32, 64)]
    assert errs[1] < errs[0] and errs[2] < errs[1]


def test_oracle_box_holds_slow_tails(space):
    # Re A floor 0.41: the tails need a half-width of about 10, and an 8-wide
    # box misses this value (0.96 beside a peak of 800) by 2.5e-5 at a point
    # count that resolves the kernel
    def gaussian(*terms):
        return QGFunction(space, [QGTerm(Poly(2, poly), QuadExponent(np.array(A), np.array(b)))
                                  for A, b, poly in terms])

    f = gaussian(([[3.64 - 1.78j, 2.25 - 0.34j], [2.25 - 0.34j, 2.19 + 0.28j]], [-0.62 + 0.5j, -1.17 - 0.67j],
                  {(0, 1): -1.45 + 0.98j, (2, 0): -1.76 - 0.75j, (3, 1): -1.37 + 2.1j}),
                 ([[0.52 + 0.23j, -0.12 + 0.3j], [-0.12 + 0.3j, 1.42 - 0.24j]], [-0.9 + 0.11j, -0.5 + 0.39j],
                  {(0, 1): 1.41 + 1.16j, (2, 0): 2.04 + 1.52j, (3, 1): 2.26 + 1.52j}))
    g = gaussian(([[1.53 + 0.37j, 0.03 - 0.26j], [0.03 - 0.26j, 0.41 + 0.53j]], [-0.76 - 0.08j, -0.76 + 0.26j],
                  {(0, 1): -0.07 + 0.44j, (1, 1): 0.46 + 0.26j, (1, 3): 0.11 - 0.49j}),
                 ([[4.09 - 0.71j, 0.99 + 0.73j], [0.99 + 0.73j, 1.61 + 0.82j]], [-0.42 + 0.1j, -0.18 + 0.16j],
                  {(1, 0): 0.48 - 0.11j, (1, 1): 0.43 - 0.48j, (3, 1): -0.18 - 1.2j}))
    z = [-0.42, 0.67]
    closed = star(f, g).evaluate(z)
    narrow = _twisted_quadrature(f, g, np.array(z), 8.0, 184)
    assert abs(narrow - closed) > 1e-6 * abs(closed)
    assert abs(quadrature_star_oracle(f, g, z) - closed) <= 1e-9 * abs(closed)


def test_oracle_resolves_the_narrowest_gaussian():
    # at hbar = 100, W_1's Re A of 0.02 sets a half-width of 43, over which
    # the kernel's oscillation needs 66 points per axis; the 0.9-wide
    # Gaussian needs 6 L sqrt(1/0.81) = 286.  With the kernel's count alone
    # the refinements (66, 92, 132) missed by 2.7e-3, 1.5e-3 and 8.8e-7
    space = VarSpace(1, 100.0)
    f, g = oscillator_wigner(1, space), gaussian_test(space, 0.9, center=[0.7, -0.4])
    z = np.array([0.256, 0.551])
    closed = star(f, g).evaluate(z)
    L = math.sqrt(36.0 / 0.02) + 0.551
    assert abs(_twisted_quadrature(f, g, z, L, 92) - closed) > 1e-4 * abs(closed)
    assert abs(quadrature_star_oracle(f, g, z) - closed) <= 1e-6 * abs(closed)


def test_oracle_grid_bound_raises_before_allocating(monkeypatch):
    # W0*W0 at hbar = 1e-3 and z = (0, 2), 63 widths of W0 from the origin,
    # asks for a 6708^2 grid, about 3.4 GB at the peak
    space = VarSpace(1, 1e-3)
    W0 = oscillator_wigner(0, space)

    def no_rule(points):
        raise AssertionError(f"a {points}-point rule was built")

    monkeypatch.setattr(importlib.import_module("mqds.star"), "gauss_legendre", no_rule)
    with pytest.raises(OracleNotConverged, match=r"6708\^2 .* grid bound of 16777216 points"):
        quadrature_star_oracle(W0, W0, [0.0, 2.0])
    unit = w0(VarSpace(1, 1.0))
    with pytest.raises(OracleNotConverged, match="grid bound"):
        _twisted_quadrature(unit, unit, np.zeros(2), 8.0, 4098)     # 4098^2 > 2^24


def test_gauss_legendre_rule():
    for n in list(range(1, 201)) + [350, 1000, 3400]:
        nodes, weights = gauss_legendre(n)
        ref_nodes, _ = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(nodes[::-1], -nodes), n
        assert np.abs(nodes - ref_nodes).max() <= 2e-16, n
        assert abs(weights.sum() - 2.0) <= 1e-14, n
        for j in range(min(n, 20)):         # exact to degree 2n - 1
            assert abs(weights @ nodes ** (2 * j) - 2.0 / (2 * j + 1)) <= 1e-13, (n, j)
        assert not nodes.flags.writeable and not weights.flags.writeable


def two_gemm_quadrature(f, g, z, halfwidth, points):
    """The N = 1 twisted quadrature as two complex products with the full
    kernels U[x1, p2] = e^{ik(x1-x)(p2-p)} and V[p1, x2] = e^{-ik(p1-p)(x2-x)}."""
    hbar = f.space.hbar
    nodes, weights = gauss_legendre(points)
    nodes, weights = nodes * halfwidth, weights * halfwidth
    w2 = np.outer(weights, weights)
    F = f.evaluate_grid([nodes, nodes]) * w2
    G = g.evaluate_grid([nodes, nodes]) * w2
    k, (x, p) = 2.0 / hbar, z
    U = np.exp(1j * k * np.outer(nodes - x, nodes - p))
    V = np.exp(-1j * k * np.outer(nodes - p, nodes - x))
    return complex(np.sum((V.T @ (F.T @ U)) * G) / (math.pi * hbar) ** 2)


@pytest.mark.parametrize("points", [48, 252, 1000])
def test_folded_kernel_matches_two_gemm_formula(points):
    # pairs that are not symmetric under x <-> p: x*p or F0+*F0+ would not
    # notice the two phases of the folded kernel exchanged
    space = VarSpace(1, 0.8)
    x = QGFunction.coordinate(space, 0)
    A = np.array([[1.3, 0.4 + 0.7j], [0.4 + 0.7j, 0.8 - 0.2j]])
    gauss = QGFunction(space, [QGTerm(Poly(2, {(1, 0): 1.0, (0, 2): 0.5j}),
                                      QuadExponent(A, np.array([0.2, -0.3j])))])
    F0, F1 = toy_resonant(0, "+", space), toy_resonant(1, "+", space)
    z = np.array([0.3, -0.2])
    for f, g in ((x, x), (F0, F1), (gauss, F0)):
        f, g = _dampened(f, 0.1), _dampened(g, 0.1)
        got, want = _twisted_quadrature(f, g, z, 8.0, points), two_gemm_quadrature(f, g, z, 8.0, points)
        assert abs(got - want) <= 1e-12 * abs(want)


def nested_kernel_quadrature(f, g, z, halfwidth, points):
    """The N = 1 twisted quadrature as two nested folded-kernel calls, F's
    output transposed in between, against G's (x2, p2) grid."""
    hbar = f.space.hbar
    nodes, weights = gauss_legendre(points)
    nodes, weights = nodes * halfwidth, weights * halfwidth
    F = f.evaluate_grid([nodes, nodes]) * weights[:, None] * weights
    G = g.evaluate_grid([nodes, nodes]) * weights[:, None] * weights
    k, (x, p) = 2.0 / hbar, z
    T = _twisted_kernel(_twisted_kernel(F, nodes, k, x, p).T, nodes, -k, p, x)
    return complex(np.sum(T * G) / (math.pi * hbar) ** 2)


def test_axis_loop_keeps_the_top_ladder_rung_exact():
    # a large N = 1 grid, P = 1686 on a box of half-width 23.6 at hbar = 0.5:
    # the axis loop gives the nested N = 1 calls' value bit for bit
    space = VarSpace(1, 0.5)
    x = _dampened(QGFunction.coordinate(space, 0), 0.045)
    L = math.sqrt(25.0 / 0.045)
    z = np.array([0.3, -0.2])
    assert _twisted_quadrature(x, x, z, L, 1686) == nested_kernel_quadrature(x, x, z, L, 1686)


def einsum_quadrature(f, g, z, halfwidth, points):
    """The N = 2 twisted quadrature as one einsum over the four full kernels
    U_j[x1_j, p2_j] = e^{ik(x1_j-x_j)(p2_j-p_j)} and V_j[p1_j, x2_j] = e^{-ik(p1_j-p_j)(x2_j-x_j)}."""
    hbar = f.space.hbar
    nodes, weights = gauss_legendre(points)
    nodes, weights = nodes * halfwidth, weights * halfwidth
    w4 = np.einsum("a,b,c,d->abcd", weights, weights, weights, weights)
    F = f.evaluate_grid([nodes] * 4) * w4
    G = g.evaluate_grid([nodes] * 4) * w4
    k, xs, ps = 2.0 / hbar, z[:2], z[2:]
    Us = [np.exp(1j * k * np.outer(nodes - xs[j], nodes - ps[j])) for j in range(2)]
    Vs = [np.exp(-1j * k * np.outer(nodes - ps[j], nodes - xs[j])) for j in range(2)]
    T = np.einsum("abcd,ae,bf,cg,dh->ghef", F, Us[0], Us[1], Vs[0], Vs[1], optimize=True)
    return complex(np.sum(T * G) / (math.pi * hbar) ** 4)


@pytest.mark.slow
@pytest.mark.parametrize("points", [44, 52])
def test_axis_loop_matches_einsum_at_two_dof(points):
    # a generic N = 2 pair: no symmetry under x <-> p or between the two dof
    space2 = VarSpace(2, 0.9)
    rng = np.random.default_rng(59)
    f, g = random_gaussian(space2, rng), random_gaussian(space2, rng)
    z = np.array([0.3, -0.2, 0.1, 0.25])
    got, want = _twisted_quadrature(f, g, z, 6.0, points), einsum_quadrature(f, g, z, 6.0, points)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_oracle_x_star_x(space):
    f, g, eps = damped_pair(QGFunction.coordinate(space, 0), QGFunction.coordinate(space, 0))
    closed = star(f, g).evaluate([0.3, -0.2])
    assert abs(quadrature_star_oracle(f, g, [0.3, -0.2]) - closed) <= 1e-12 * abs(closed)


@pytest.mark.parametrize("hbar", [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0])
def test_damped_oracle_agrees_at_every_hbar(hbar):
    # one damping in natural units, eps = 0.4 / hbar, at z = sqrt(hbar) u:
    # the same grid at every hbar, and agreement to roundoff
    space = VarSpace(1, hbar)
    x, p = QGFunction.coordinate(space, 0), QGFunction.coordinate(space, 1)
    Fp, Fm = toy_resonant(0, "+", space), toy_resonant(0, "-", space)
    for f, g in ((x, x), (x, p), (p, x), (Fp, Fp), (Fm, Fm)):
        df, dg, eps = damped_pair(f, g)
        assert eps == 0.4 / hbar
        for u in ([0.3, -0.7], [-0.006, -0.2313], [1.0, 0.0]):
            z = math.sqrt(hbar) * np.array(u)
            closed = star(df, dg).evaluate(z)
            assert abs(quadrature_star_oracle(df, dg, z) - closed) <= 1e-12 * abs(closed)


def test_damped_pair_leaves_decaying_and_growing_pairs(space, space2):
    W0 = w0(space)
    f, g, eps = damped_pair(W0, W0)
    assert f is W0 and g is W0 and eps == 0.0
    A = np.zeros((4, 4))
    A[0, 3] = A[3, 0] = -2.0
    A[1, 2] = A[2, 1] = 2.0
    G00 = QGFunction.from_exponent(space2, A)
    f, g, eps = damped_pair(G00, G00)
    assert f is G00 and g is G00 and eps == 0.0
    x = QGFunction.coordinate(space2, 0)
    with pytest.raises(OracleNotConverged, match="oscillatory N=2"):
        damped_pair(x, x)


def test_folded_kernel_odd_point_count_raises(space):
    W0 = w0(space)
    with pytest.raises(ValueError, match="even"):
        _twisted_quadrature(W0, W0, np.zeros(2), 8.0, 49)
    with pytest.raises(ValueError, match="even"):
        _twisted_kernel(np.ones((5, 3), dtype=complex), gauss_legendre(5)[0], 1.0, 0.0, 0.0)


def test_oracle_non_integrable_raises(space2):
    A = np.zeros((4, 4))
    A[0, 3] = A[3, 0] = -2.0
    A[1, 2] = A[2, 1] = 2.0
    G00 = QGFunction.from_exponent(space2, A)
    with pytest.raises(OracleNotConverged):
        quadrature_star_oracle(G00, G00, [0, 0, 0, 0])


@pytest.mark.slow
def test_oracle_two_dof_gaussians(space2):
    rng = np.random.default_rng(53)
    f = QGFunction.from_exponent(space2, 1.5 * np.eye(4), 0.3 * np.ones(4))
    g = QGFunction.from_exponent(space2, np.eye(4))
    z = np.array([0.1, 0.2, -0.1, 0.05])
    closed = star(f, g).evaluate(z)
    quad = quadrature_star_oracle(f, g, z)
    assert abs(closed - quad) <= 1e-6 * abs(closed)


def two_term_gaussian(space, rng):
    """A random function of two poly x Gaussian terms, each poly of up to three monomials."""
    d = space.dim
    terms = []
    for _ in range(2):
        R, S = rng.normal(size=(d, d)), rng.normal(size=(d, d))
        A = R.T @ R + 0.4 * np.eye(d) + 0.35j * (S + S.T)
        b = 0.5 * (rng.normal(size=d) + 1j * rng.normal(size=d))
        poly = Poly(d, {tuple(int(k) for k in rng.integers(0, 3, size=d)):
                        complex(rng.normal(), rng.normal()) for _ in range(3)})
        terms.append(QGTerm(poly, QuadExponent(A, b)))
    return QGFunction(space, terms)


# coeff_norm and the values at linspace(-0.6, 0.7, d) and linspace(0.3, -0.2, d)
# of each product, from the dict-of-tuples Poly that the packed one replaced
DICT_POLY_RESULTS = {
    "W12*W0": (9.7912166638018e-13, [2.0565029319759672e-15 + 6.544703819103815e-15j,
                                     -3.9142146947571895e-15 + 5.085443414791553e-16j]),
    "H*F66": (435827.7889801795, [17.7754979912421 - 13.105165418894444j,
                                  -1.0699925702188813 - 0.5538792692581842j]),
    "F66*H": (435827.78898017976, [17.775497991242098 - 13.105165418894444j,
                                   -1.0699925702188813 - 0.5538792692581842j]),
    "gauss2": (54.940557566497304, [0.0264502002413737 + 0.022010024118129138j,
                                    -0.030416883181695383 - 0.0017636735414325363j]),
    "F33": (230.21298714468486, [-0.36708771625743675 + 0.2921376594448928j,
                                 0.08391630608310274 - 0.04975777831601674j]),
}


def test_products_never_build_the_term_dict(monkeypatch):
    # with Poly.terms refused, the series, the composition and the ladder
    # builds still give the dict-backed results, to 1e-14 of the operands' size
    def refused(self):
        raise AssertionError("a hot path read Poly.terms")

    monkeypatch.setattr(Poly, "terms", property(refused))
    s1, s2 = VarSpace(1, 1.0), VarSpace(2, 1.0)
    rng = np.random.default_rng(41)
    f, g = two_term_gaussian(s2, rng), two_term_gaussian(s2, rng)
    W12, W0 = oscillator_wigner(12, s1), oscillator_wigner(0, s1)
    # F33 and F66 by the ladder chains that DICT_POLY_RESULTS were taken from
    H, F66 = hamiltonian(ModelId.dho(), s2), dho_ladder("F", 6, 6, s2)
    F33 = dho_ladder("F", 3, 3, s2)
    got = {"W12*W0": (star(W12, W0), W12.coeff_norm() * W0.coeff_norm()),
           "H*F66": (star(H, F66), H.coeff_norm() * F66.coeff_norm()),
           "F66*H": (star(F66, H), H.coeff_norm() * F66.coeff_norm()),
           "gauss2": (star(f, g), f.coeff_norm() * g.coeff_norm()),
           "F33": (F33, F33.coeff_norm())}
    for name, (P, size) in got.items():
        norm, values = DICT_POLY_RESULTS[name]
        scale = 1e-14 * max(size, norm)
        assert abs(P.coeff_norm() - norm) <= scale, name
        points = [np.linspace(-0.6, 0.7, P.space.dim), np.linspace(0.3, -0.2, P.space.dim)]
        for z, want in zip(points, values):
            assert abs(P.evaluate(z) - want) <= scale, name

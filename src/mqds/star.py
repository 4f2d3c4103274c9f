"""Moyal star product on Gaussian-polynomial phase-space functions.

Two exact evaluation paths, dispatched per term pair:

* polynomial x anything: the bidifferential series

      f * g = sum_{a,b} (i hbar/2)^{|a|+|b|} (-1)^{|b|} / (a! b!)
              (d_x^a d_p^b f) (d_p^a d_x^b g)

  terminates at the polynomial factor's total degree.

* Gaussian x Gaussian: the closed composition derived from the twisted
  integral representation

      (f*g)(z) = (pi hbar)^{-2N} int dz1 dz2 f(z1) g(z2)
                 exp[(2i/hbar) (z1-z)^T J (z2-z)],    J = [[0, I], [-I, 0]],

  evaluated by completing the square in (z1, z2); polynomial prefactors are
  produced by differentiating the pure-exponential result with respect to
  the factors' linear coefficients (source-term trick; see gausspoly).

An independent numerical oracle quadratures the same twisted integral on a
tensor Gauss-Legendre grid and is used to validate the composition rule.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, List, Tuple

import numpy as np

from .algebra import QGFunction, QGTerm, QuadExponent, VarSpace
from .gausspoly import composition_context
from .poly import (Poly, _summed, check_packed_degree, merge, multi_factorial, multi_indices,
                   packed_bits, packed_diff, unpack)


class EvolutionSingular(Exception):
    """Closed-form star exponential evaluated at a zero of cosh(lam t/2)."""


class OracleNotConverged(Exception):
    """Quadrature oracle refinements failed to settle, or its grid was too large."""


class OracleNeedsDamping(OracleNotConverged):
    """The pair does not decay, so its twisted integral does not converge:
    the oracle checks the damped pair from `damped_pair` instead."""


# the largest quadrature grid the oracle builds: a quadrature peaks near 66 B
# per point (tracemalloc), so about 1.1 GB
ORACLE_MAX_GRID_POINTS = 2 ** 24


# ---------------------------------------------------------------------------
# exact star product
# ---------------------------------------------------------------------------

def _series_term_pair(space: VarSpace, t1: QGTerm, t2: QGTerm) -> List[QGTerm]:
    """Terminating bidifferential series for one term pair, one of them
    without a Gaussian: one term over the exponent q1 + q2, or none when the
    series vanishes.  It ends at the lower degree of the factors without a
    Gaussian.

    Each factor's derivatives are packed and memoized by multi-index; the
    products of all (alpha, beta) go through one merge.  A factor without a
    Gaussian has no derivative past its degree in each variable, which caps
    each direction of alpha and beta; it goes first, so that the other
    factor's derivative is not needed where its own vanishes.
    """
    n, dim = space.n_dof, space.dim
    d1, d2 = t1.poly.degree(), t2.poly.degree()
    if d1 < 0 or d2 < 0:
        return []
    bits = packed_bits(dim)
    g1, g2 = not t1.expo.is_zero(), not t2.expo.is_zero()
    bound = min(d for d, g in ((d1, g1), (d2, g2)) if not g)
    # D_j raises a Gaussian factor's degree by one and lowers a polynomial's
    check_packed_degree(max(d1 + g1 * bound, d2 + g2 * bound, d1 + d2 + 2 * g1 * g2 * bound),
                        bits, dim)
    left = _derivatives(t1, bits, swap=False)     # d_x^a d_p^b f
    right = _derivatives(t2, bits, swap=True)     # d_p^a d_x^b g
    first, second = (right, left) if g1 and not g2 else (left, right)

    caps = [bound] * dim                          # over (alpha, beta)
    for term, swap in ((t1, False), (t2, True)):
        if not term.expo.is_zero():
            continue
        degs = unpack(term.poly.keys, dim, bits).max(axis=0).tolist()
        if swap:
            degs = degs[n:] + degs[:n]
        caps = [min(c, d) for c, d in zip(caps, degs)]

    keys, coeffs = [], []
    pref_base = 0.5j * space.hbar
    for alpha in multi_indices(n, bound, caps[:n]):
        ra = sum(alpha)
        for beta in multi_indices(n, bound - ra, caps[n:]):
            if not len(first(alpha, beta)[0]) or not len(second(alpha, beta)[0]):
                continue
            rb = sum(beta)
            coeff = (pref_base ** (ra + rb)) * ((-1.0) ** rb)
            coeff /= multi_factorial(alpha) * multi_factorial(beta)
            (lk, lc), (rk, rc) = left(alpha, beta), right(alpha, beta)
            keys.append((lk[:, None] + rk).ravel())
            coeffs.append(((coeff * lc)[:, None] * rc).ravel())
    if not keys:
        return []
    keys, coeffs = merge(np.concatenate(keys), np.concatenate(coeffs))
    if not len(keys):
        return []
    e1, e2 = t1.expo, t2.expo
    return [QGTerm(Poly.from_packed(dim, keys, coeffs),
                   QuadExponent(e1.A + e2.A, e1.b + e2.b, e1.c + e2.c))]


def _derivatives(term: QGTerm, bits: int, swap: bool):
    """(alpha, beta) -> d_x^alpha d_p^beta (P e^q) / e^q, packed and memoized
    (d_p^alpha d_x^beta when `swap`).  Each is D_j = d_j + d_j q applied to the
    multi-index one lower in its first nonzero variable."""
    rows, b = -term.expo.A, term.expo.b
    memo: Dict[Tuple[int, ...], Tuple[np.ndarray, np.ndarray]] = {}

    def get(m):
        got = memo.get(m)
        if got is None:
            j = next((j for j, k in enumerate(m) if k), None)
            if j is None:
                got = term.poly.keys, term.poly.coeffs
            else:
                keys, coeffs = get(m[:j] + (m[j] - 1,) + m[j + 1:])
                if len(keys):
                    keys, coeffs = packed_diff(keys, coeffs, j, bits, rows[j], b[j])
                got = keys, coeffs
            memo[m] = got
        return got

    if swap:
        return lambda alpha, beta: get(beta + alpha)
    return lambda alpha, beta: get(alpha + beta)


def _compose_term_pair(space: VarSpace, t1: QGTerm, t2: QGTerm) -> QGTerm:
    """Closed-form Gaussian composition for one term pair, in natural units.

    The product is covariant under z = sqrt(hbar) w:
    f(z/sqrt(hbar)) *_hbar g(z/sqrt(hbar)) = (f *_1 g)(z/sqrt(hbar)).  So both
    terms are written in w (A -> hbar A, b -> sqrt(hbar) b, the coefficient
    of z^e times hbar^(|e|/2)), composed at hbar = 1 and mapped back; c and
    the prefactor do not change.  One context, with its moment memos, then
    serves a pair of exponents at every hbar.  At hbar = 1 the map is the
    identity, and it is skipped: it would copy both polynomials and the
    product for nothing.
    """
    hbar, unit = space.hbar, math.sqrt(space.hbar)
    (A1, b1, P1), (A2, b2, P2) = [(t.expo.A, t.expo.b, t.poly) if hbar == 1.0 else
                                  (hbar * t.expo.A, unit * t.expo.b, t.poly.rescaled(unit))
                                  for t in (t1, t2)]
    ctx = composition_context(space.n_dof, A1, b1, A2, b2)
    poly, A3, b3 = ctx.compose(P1, P2), ctx.A3, ctx.b3
    if hbar != 1.0:
        poly, A3, b3 = poly.rescaled(1.0 / unit), A3 / hbar, b3 / unit
    return QGTerm(poly.scaled(ctx.pref), QuadExponent(A3, b3, ctx.c3_base + t1.expo.c + t2.expo.c))


def star(f: QGFunction, g: QGFunction) -> QGFunction:
    """Moyal star product f * g; bilinear, associative, exact on the class."""
    f._check_space(g)
    space = f.space
    out: List[QGTerm] = []
    for t1 in f.terms:
        for t2 in g.terms:
            if t1.expo.is_zero() or t2.expo.is_zero():
                out.extend(_series_term_pair(space, t1, t2))
            else:
                out.append(_compose_term_pair(space, t1, t2))
    return QGFunction(space, out)


def moyal_bracket(f: QGFunction, g: QGFunction) -> QGFunction:
    """{f, g}_M = f*g - g*f."""
    return star(f, g) - star(g, f)


# ---------------------------------------------------------------------------
# star exponentials and time evolution
# ---------------------------------------------------------------------------

def star_exp_series(H: QGFunction, order: int) -> List[QGFunction]:
    """Taylor coefficients in t of Exp(-(i/hbar) t H): coefficient k is
    (-i/hbar)^k / k! H^{*k}.  H must be polynomial; order <= 16."""
    if not H.is_polynomial():
        raise ValueError("star exponential series requires a polynomial generator")
    if order > 16:
        raise ValueError("series order capped at 16")
    hbar = H.space.hbar
    coeffs = [QGFunction.constant(H.space, 1.0)]
    power = QGFunction.constant(H.space, 1.0)
    for k in range(1, order + 1):
        power = star(power, H)
        coeffs.append(power.scaled((-1j / hbar) ** k / math.factorial(k)))
    return coeffs


def _J_times(X: np.ndarray) -> np.ndarray:
    """J X for J = [[0, I], [-I, 0]]."""
    n = len(X) // 2
    return np.concatenate([X[n:], -X[:n]])


def _flow_spectrum(model, space: VarSpace) -> Tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """The eigenvalues lam of K = J M, where the model's Hamiltonian is
    H = 1/2 z^T M z, so that zdot = K z, and the map from f's values on them
    to the real matrix f(K) = V diag(f(lam)) V^-1.

    Every K a model admits (+-i w, +-g, +-g +- i w) is normal, so a plain
    eigendecomposition holds.  M is real, as every model's H is.
    """
    from .models import hamiltonian  # deferred: models imports this module

    d = space.dim
    M = np.zeros((d, d))
    for e, coef in hamiltonian(model, space).polynomial_part().canonical_items():
        i, j = [i for i, k in enumerate(e) for _ in range(k)]
        M[i, j] += coef.real
        M[j, i] += coef.real
    lam, V = np.linalg.eig(_J_times(M))
    Vinv = np.linalg.inv(V)
    return lam, lambda values: ((V * values) @ Vinv).real


def star_exp_closed(model, t: float, space: VarSpace) -> QGFunction:
    """Closed form of Exp(-(i/hbar) t H) for H = 1/2 z^T M z and K = J M
    (Bayen, Flato, Fronsdal, Lichnerowicz and Sternheimer, Ann. Phys. 111, 1978):

        prod sech(lam t/2) exp[(i/hbar) z^T J tanh(t K/2) z]

    The product takes one eigenvalue lam of K from each +- pair; cosh is
    even, so either member gives the same factor.  For the oscillator this
    is sec(w t/2) exp[-(2i/(hbar w)) tan(w t/2) H], for the toy
    sech(g t/2) exp[-(2i/(hbar g)) tanh(g t/2) H].
    """
    lam, of_K = _flow_spectrum(model, space)
    cosh = np.cosh(0.5 * t * lam)
    if np.abs(cosh).min() < 1e-6:
        raise EvolutionSingular(f"star exponential singular at t = {t}")
    tol = 1e-8 * np.abs(lam).max()
    one_of_each_pair = (lam.real > tol) | ((np.abs(lam.real) <= tol) & (lam.imag > 0))
    JT = _J_times(of_K(np.tanh(0.5 * t * lam)))
    # exp(-1/2 z^T A z) = exp((i/hbar) z^T J T z)
    return QGFunction.from_exponent(space, (-2j / space.hbar) * JT,
                                    coeff=float(np.prod(1.0 / cosh[one_of_each_pair]).real))


def star_exp_closed_taylor(model, order: int, space: VarSpace) -> List[QGFunction]:
    """t-Taylor coefficients of the closed-form star exponential exp L(t),

        L(t) = (i/hbar) z^T J tanh(t K/2) z - 1/2 tr log cosh(t K/2),

    by k e_k = sum_j j L_j e_{k-j}.  With tanh(s) = sum c_k s^k, from
    tau' = 1 - tau^2, and (log cosh)' = tanh, L_k is
    c_k (i/hbar) z^T J (K/2)^k z - c_{k-1} tr (K/2)^k / (2k).
    """
    lam, of_K = _flow_spectrum(model, space)
    d = space.dim
    c = np.zeros(order + 1)
    L = [Poly(d)]
    for k in range(1, order + 1):
        c[k] = ((k == 1) - c[:k] @ c[k - 1::-1]) / k
        power = (0.5 * lam) ** k
        S = _J_times(of_K(power)) * (1j * c[k] / space.hbar)
        Lk = Poly.const(d, -c[k - 1] * power.sum().real / (2 * k))
        for i in range(d):
            Lk = Lk + Poly.variable(d, i).mul(Poly.linear(S[i]))
        L.append(Lk)
    e = [Poly.const(d, 1.0)]
    for k in range(1, order + 1):
        e.append(_summed(d, [L[j].mul(e[k - j]).scaled(j / k) for j in range(1, k + 1)]))
    return [QGFunction.from_poly(space, p) for p in e]


def evolve(f: QGFunction, model, t: float) -> QGFunction:
    """W(t) = U(t) * f * U(-t), with U(t)^{-1} realized as U(-t)."""
    U = star_exp_closed(model, t, f.space)
    Uinv = star_exp_closed(model, -t, f.space)
    return star(star(U, f), Uinv)


def classical_flow_matrix(model, t: float) -> np.ndarray:
    """Matrix e^{tK} of the classical Hamiltonian flow Phi_t on (x, p)."""
    lam, of_K = _flow_spectrum(model, VarSpace(model.n_dof, 1.0))
    return of_K(np.exp(t * lam))


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

def _decay_rates(*fs: QGFunction) -> Tuple[float, float]:
    """Smallest and largest eigenvalue of Re A over all terms of `fs`: the
    decay rate of the slowest tail and that of the narrowest Gaussian."""
    eigs = [np.linalg.eigvalsh(0.5 * (t.expo.A.real + t.expo.A.real.T)) for f in fs for t in f.terms]
    return (min((float(ev.min()) for ev in eigs), default=math.inf),
            max((float(ev.max()) for ev in eigs), default=0.0))


def _dampened(f: QGFunction, eps: float) -> QGFunction:
    """f(z) * exp(-eps |z|^2), still in the class."""
    d = f.space.dim
    out = [QGTerm(t.poly, QuadExponent(t.expo.A + 2.0 * eps * np.eye(d), t.expo.b, t.expo.c))
           for t in f.terms]
    return QGFunction(f.space, out, canonical=True)


@functools.lru_cache(maxsize=64)
def gauss_legendre(points: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], cached and read-only.

    Newton iteration on the three-term recurrence from Tricomi's estimates,
    over the non-negative half of the nodes at once, O(points^2); the other
    half is its mirror image, so nodes[-1 - i] == -nodes[i] exactly.
    Weights are 2 / ((1 - x^2) P_n'(x)^2).
    """
    n = points
    if n < 1:
        raise ValueError("Gauss-Legendre rule needs at least one point")
    k = np.arange(1, (n + 1) // 2 + 1)                 # descending x_k >= 0
    x = np.cos(math.pi * (4 * k - 1) / (4 * n + 2)) * (1.0 - (n - 1) / (8.0 * n ** 3))
    if n % 2:
        x[-1] = 0.0                                     # P_n(0) = 0 exactly for odd n

    def slope(x):
        """P_n(x) and P_n'(x) by the recurrence (j+1) P_{j+1} = (2j+1) x P_j - j P_{j-1}."""
        lower, value = np.ones_like(x), x.copy()
        for j in range(1, n):
            lower, value = value, ((2 * j + 1) / (j + 1)) * x * value - (j / (j + 1)) * lower
        return value, n * (lower - x * value) / ((1.0 - x) * (1.0 + x))

    for _ in range(100):
        value, deriv = slope(x)
        step = value / deriv
        x = x - step
        if np.abs(step).max() < 1e-14:
            break
    _, deriv = slope(x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * deriv * deriv)
    half = n // 2
    nodes = np.concatenate([-x, x[:half][::-1]])
    weights = np.concatenate([w, w[:half][::-1]])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _twisted_kernel(arr: np.ndarray, nodes: np.ndarray, k: float, s: float, t: float) -> np.ndarray:
    """out[c, ...] = sum_a exp(ik (n_a - s)(n_c - t)) arr[a, ...] on symmetric nodes.

    The kernel factors as exp(ik st) exp(-ik t n_a) E[a, c] exp(-ik s n_c) with
    E = exp(ik n_a n_c): the first phase goes into the summed axis, the last
    into the output axis.  Rows a and P-1-a (nodes n and -n) fold into
    A+- = A_a +- A_{P-1-a}, so that two real products cos(k m m') @ A+ and
    sin(k m m') @ A- over the half m of the nodes give output rows c and P-1-c
    as ce +- i so: a quarter of the flops of the complex product.  `arr` may
    be any view: the first phase makes its one C-order copy.
    """
    P = len(nodes)
    if P % 2:
        raise ValueError("the folded quadrature kernel needs an even point count")
    h = P // 2
    phase = np.exp(-1j * k * t * nodes).reshape(P, *(1,) * (arr.ndim - 1))
    a = np.multiply(arr, phase, order="C").reshape(P, -1)
    plus, minus = a[:h] + a[::-1][:h], a[:h] - a[::-1][:h]
    del a                                   # a full-size array, not needed past the fold
    arg = k * np.outer(nodes[:h], nodes[:h])
    ce = (np.cos(arg) @ plus.view(float)).view(complex)
    so = (np.sin(arg) @ minus.view(float)).view(complex)
    so *= 1j
    out = np.empty((P, ce.shape[1]), dtype=complex)
    np.add(ce, so, out=out[:h])
    np.subtract(ce, so, out=out[::-1][:h])
    out *= np.exp(1j * k * s * (t - nodes))[:, None]
    return out.reshape(arr.shape)


def _twisted_quadrature(f: QGFunction, g: QGFunction, z: np.ndarray,
                        halfwidth: float, points: int) -> complex:
    """Tensor Gauss-Legendre quadrature of the twisted-product integral; a grid
    over ORACLE_MAX_GRID_POINTS raises OracleNotConverged before it exists."""
    space = f.space
    n, hbar = space.n_dof, space.hbar
    if points ** space.dim > ORACLE_MAX_GRID_POINTS:
        raise OracleNotConverged(f"a {points}^{space.dim} quadrature grid exceeds the oracle's "
                                 f"grid bound of {ORACLE_MAX_GRID_POINTS} points")
    nodes, weights = gauss_legendre(points)
    nodes = nodes * halfwidth
    weights = weights * halfwidth
    axes = [nodes] * space.dim

    def weighted(fn):
        arr = fn.evaluate_grid(axes)
        for ax in range(space.dim):
            shape = [1] * space.dim
            shape[ax] = points
            arr *= weights.reshape(shape)
        return arr

    # kernel prod_j exp[ik ((x1_j - x_j)(p2_j - p_j) - (p1_j - p_j)(x2_j - x_j))]:
    # contract F over each x1_j into p2_j and each p1_j into x2_j, axis by axis,
    # before G exists
    k = 2.0 / hbar
    T = weighted(f)
    for ax in range(space.dim):
        sign, partner = (1.0, ax + n) if ax < n else (-1.0, ax - n)
        T = np.moveaxis(_twisted_kernel(np.moveaxis(T, ax, 0), nodes, sign * k, z[ax], z[partner]), 0, ax)
    # T's axes are (p2, x2): G's two halves swapped
    val = np.sum(T * weighted(g).transpose([*range(n, 2 * n), *range(n)]))
    return complex(val / (math.pi * hbar) ** (2 * n))


def damped_pair(f: QGFunction, g: QGFunction) -> Tuple[QGFunction, QGFunction, float]:
    """The pair the oracle can check in place of (f, g), and its damping eps.

    A decaying pair is its own (eps = 0); so is a growing one, which the
    oracle refuses.  Otherwise (polynomials, pure phases) both factors are
    damped to f e^{-eps |z|^2}, g e^{-eps |z|^2} with eps = 0.4 / hbar, in
    natural units, so that at z = sqrt(hbar) u the oracle's grid is the same
    at every hbar.  An N = 2 pair that does not decay is refused here,
    before any grid is built.
    """
    floor = _decay_rates(f, g)[0]
    if not -1e-10 <= floor <= 1e-8:
        return f, g, 0.0
    if f.space.n_dof == 2:
        raise OracleNotConverged("oscillatory N=2 grid would be too large")
    eps = 0.4 / f.space.hbar
    return _dampened(f, eps), _dampened(g, eps), eps


def quadrature_star_oracle(f: QGFunction, g: QGFunction, z) -> complex:
    """Evaluate (f*g)(z) by quadrature of the twisted-product integral.

    Independent of the closed-form composition: pure grid sums, refined once
    or twice on a box that holds the tails.  Only decaying pairs converge; a
    pair that merely oscillates (polynomials, pure phases) raises
    OracleNeedsDamping, and is checked through `damped_pair` against the
    closed form of the damped pair.  Raises OracleNotConverged when
    refinements disagree beyond 1e-5 relative, the integrand grows on the
    real domain or a grid would exceed ORACLE_MAX_GRID_POINTS.
    """
    if f.space.n_dof > 2:
        raise ValueError("oracle supports N <= 2")
    z = np.asarray(z, dtype=float).reshape(-1)
    floor, top = _decay_rates(f, g)
    if floor < -1e-10:
        raise OracleNotConverged("integrand grows on the truncated grid (Re A indefinite)")
    if floor <= 1e-8:
        raise OracleNeedsDamping("the pair does not decay: compare damped_pair(f, g) instead")

    # box wide enough for the tails, grid fine enough for the twisted
    # kernel's oscillation across the box and for the narrowest Gaussian
    L = math.sqrt(36.0 / floor) + float(np.abs(z).max())
    if f.space.n_dof == 2:
        # time: the kernel contraction holds P^4 tensors
        counts = (44, 52)
    else:
        pts = max(48, int(4.6 * L * L / (math.pi * f.space.hbar)) + 40,
                  int(6.0 * L * math.sqrt(top))) // 2 * 2
        counts = (pts, int(pts * 1.4) // 2 * 2, 2 * pts)
    prev = None
    for points in counts:
        val = _twisted_quadrature(f, g, z, L, points)
        if prev is not None and abs(val - prev) <= 1e-5 * max(abs(val), 1e-9):
            return val
        prev = val
    raise OracleNotConverged("grid refinements disagree")

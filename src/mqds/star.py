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

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .algebra import QGFunction, QGTerm, QuadExponent, VarSpace
from .gausspoly import composition_context
from .poly import Poly, multi_factorial, multi_indices


class EvolutionSingular(Exception):
    """Closed-form star exponential evaluated at a pole of 1/cos."""


class OracleNotConverged(Exception):
    """Quadrature oracle refinements failed to settle."""


@dataclass(frozen=True)
class StarConfig:
    # cap on the decaying path's box half-width, sqrt(36/floor) + |z|: a cap
    # of 8 cut the tails at Re A floors near 0.4 (a 2.5e-5 miss)
    oracle_grid_halfwidth: float = 12.0
    oracle_points_per_axis: int = 48

    def __post_init__(self):
        if self.oracle_points_per_axis < 32 or self.oracle_points_per_axis % 2:
            raise ValueError("oracle_points_per_axis must be even and >= 32")


# ---------------------------------------------------------------------------
# exact star product
# ---------------------------------------------------------------------------

def _series_term_pair(space: VarSpace, t1: QGTerm, t2: QGTerm, bound: int) -> List[QGTerm]:
    """Terminating bidifferential series for one term pair."""
    n, hbar = space.n_dof, space.hbar
    d1: Dict[Tuple, QGTerm] = {}
    d2: Dict[Tuple, QGTerm] = {}

    def deriv(cache, base, alpha, beta, x_first: bool):
        # x_first: x-derivatives use alpha (left factor); else swapped (right factor)
        key = (alpha, beta)
        got = cache.get(key)
        if got is not None:
            return got
        if sum(alpha) + sum(beta) == 0:
            cache[key] = base
            return base
        for k in range(n):
            if alpha[k]:
                prev = deriv(cache, base, alpha[:k] + (alpha[k] - 1,) + alpha[k + 1:], beta, x_first)
                out = prev.diff(k if x_first else n + k)
                break
        else:
            for k in range(n):
                if beta[k]:
                    prev = deriv(cache, base, alpha, beta[:k] + (beta[k] - 1,) + beta[k + 1:], x_first)
                    out = prev.diff(n + k if x_first else k)
                    break
        cache[key] = out
        return out

    out_terms: List[QGTerm] = []
    pref_base = 0.5j * hbar
    for alpha in multi_indices(n, bound):
        ra = sum(alpha)
        for beta in multi_indices(n, bound - ra):
            rb = sum(beta)
            coeff = (pref_base ** (ra + rb)) * ((-1.0) ** rb)
            coeff /= multi_factorial(alpha) * multi_factorial(beta)
            left = deriv(d1, t1, alpha, beta, True)     # d_x^a d_p^b f
            right = deriv(d2, t2, alpha, beta, False)   # d_p^a d_x^b g
            if left.poly.is_zero() or right.poly.is_zero():
                continue
            prod = left.mul(right)
            out_terms.append(QGTerm(prod.poly.scaled(coeff), prod.expo))
    return out_terms


def _compose_term_pair(space: VarSpace, t1: QGTerm, t2: QGTerm) -> QGTerm:
    """Closed-form Gaussian composition for one term pair."""
    ctx = composition_context(space.n_dof, space.hbar,
                              t1.expo.A, t1.expo.b, t2.expo.A, t2.expo.b)
    poly = ctx.compose(t1.poly, t2.poly).scaled(ctx.pref)
    expo = QuadExponent(ctx.A3, ctx.b3, ctx.c3_base + t1.expo.c + t2.expo.c)
    return QGTerm(poly, expo)


def star(f: QGFunction, g: QGFunction) -> QGFunction:
    """Moyal star product f * g; bilinear, associative, exact on the class."""
    f._check_space(g)
    space = f.space
    out: List[QGTerm] = []
    for t1 in f.terms:
        z1 = t1.expo.is_zero()
        for t2 in g.terms:
            z2 = t2.expo.is_zero()
            if z1 and z2:
                bound = min(t1.poly.degree(), t2.poly.degree())
                out.extend(_series_term_pair(space, t1, t2, bound))
            elif z1:
                out.extend(_series_term_pair(space, t1, t2, t1.poly.degree()))
            elif z2:
                out.extend(_series_term_pair(space, t1, t2, t2.poly.degree()))
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


def _series_mul(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    out = np.zeros(order + 1, dtype=complex)
    for i, ai in enumerate(a[:order + 1]):
        if ai == 0:
            continue
        top = min(order - i, len(b) - 1)
        out[i:i + top + 1] += ai * b[:top + 1]
    return out


def _series_recip(a: np.ndarray, order: int) -> np.ndarray:
    out = np.zeros(order + 1, dtype=complex)
    out[0] = 1.0 / a[0]
    for k in range(1, order + 1):
        s = 0j
        for j in range(1, min(k, len(a) - 1) + 1):
            s += a[j] * out[k - j]
        out[k] = -s / a[0]
    return out


def _cos_sin_series(rate: float, order: int, hyperbolic: bool) -> Tuple[np.ndarray, np.ndarray]:
    c = np.zeros(order + 1, dtype=complex)
    s = np.zeros(order + 1, dtype=complex)
    for k in range(0, order + 1, 2):
        sign = 1.0 if hyperbolic else (-1.0) ** (k // 2)
        c[k] = sign * rate ** k / math.factorial(k)
    for k in range(1, order + 1, 2):
        sign = 1.0 if hyperbolic else (-1.0) ** ((k - 1) // 2)
        s[k] = sign * rate ** k / math.factorial(k)
    return c, s


def _closed_form_scalars(model, hbar: float):
    """(rate, H-scale factor, hyperbolic?) for the closed star exponential."""
    kind = model.kind
    if kind == "harmonic_oscillator":
        return model.omega, -2j / (hbar * model.omega), False
    if kind == "damped_toy":
        return model.gamma, -2j / (hbar * model.gamma), True
    raise ValueError(f"no closed star exponential for model '{kind}'")


def star_exp_closed(model, t: float, space: VarSpace) -> QGFunction:
    """Closed form of Exp(-(i/hbar) t H):

        oscillator:  sec(w t/2) exp[-(2i/(hbar w)) tan(w t/2) H]
        damped toy:  sech(g t/2) exp[-(2i/(hbar g)) tanh(g t/2) H]

    The argument scaling (w t/2 rather than t/2) is fixed by matching the
    star-power series order by order.
    """
    from .models import hamiltonian  # deferred: models imports this module

    rate, hfac, hyperbolic = _closed_form_scalars(model, space.hbar)
    u = rate * t / 2.0
    if hyperbolic:
        cosv, tanv = np.cosh(u), np.tanh(u)
    else:
        cosv, tanv = np.cos(u), np.tan(u)
        if abs(cosv) < 1e-6:
            raise EvolutionSingular(f"star exponential singular at t = {t}")
    H = hamiltonian(model, space).polynomial_part()

    # exponent is a pure quadratic: fold hfac*tan * H into (A, b, c)
    d = space.dim
    A = np.zeros((d, d), dtype=complex)
    b = np.zeros(d, dtype=complex)
    c = 0j
    for e, coef in H.terms.items():
        w = hfac * tanv * coef
        deg = sum(e)
        if deg == 0:
            c += w
        elif deg == 1:
            b[e.index(1)] += w
        elif deg == 2:
            idx = [i for i, k in enumerate(e) for _ in range(k)]
            i, j = idx
            if i == j:
                A[i, i] += -2.0 * w
            else:
                A[i, j] += -w
                A[j, i] += -w
        else:
            raise ValueError("closed star exponential needs a quadratic Hamiltonian")
    return QGFunction.from_exponent(space, A, b, c, coeff=1.0 / cosv)


def star_exp_closed_taylor(model, order: int, space: VarSpace) -> List[QGFunction]:
    """t-Taylor coefficients of the closed-form star exponential."""
    from .models import hamiltonian

    rate, hfac, hyperbolic = _closed_form_scalars(model, space.hbar)
    cos_s, sin_s = _cos_sin_series(rate / 2.0, order, hyperbolic)
    sec_s = _series_recip(cos_s, order)
    tan_s = _series_mul(sin_s, sec_s, order)

    H = hamiltonian(model, space).polynomial_part()
    H_pow = [Poly.const(space.dim, 1.0)]
    weight = sec_s.copy()
    k = 0
    out_polys = [Poly(space.dim) for _ in range(order + 1)]
    while True:
        scal = hfac ** k / math.factorial(k)
        for j in range(order + 1):
            if weight[j] != 0:
                out_polys[j].add_scaled(H_pow[-1], scal * weight[j])
        k += 1
        if k > order:
            break
        H_pow.append(H_pow[-1].mul(H))
        weight = _series_mul(weight, tan_s, order)   # sec * tan^k
    return [QGFunction.from_poly(space, p) for p in out_polys]


def evolve(f: QGFunction, model, t: float) -> QGFunction:
    """W(t) = U(t) * f * U(-t), with U(t)^{-1} realized as U(-t)."""
    U = star_exp_closed(model, t, f.space)
    Uinv = star_exp_closed(model, -t, f.space)
    return star(star(U, f), Uinv)


def classical_flow_matrix(model, t: float) -> np.ndarray:
    """Matrix of the classical Hamiltonian flow Phi_t on (x, p)."""
    kind = model.kind
    if kind == "harmonic_oscillator":
        w = model.omega
        return np.array([[math.cos(w * t), math.sin(w * t)],
                         [-math.sin(w * t), math.cos(w * t)]])
    if kind == "damped_toy":
        g = model.gamma
        return np.array([[math.exp(-g * t), 0.0], [0.0, math.exp(g * t)]])
    raise ValueError(f"no classical flow matrix for model '{kind}'")


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

def _decay_floor(f: QGFunction) -> float:
    """Smallest eigenvalue of Re A over all terms (decay rate of the tails)."""
    worst = math.inf
    for t in f.terms:
        ev = np.linalg.eigvalsh(0.5 * (t.expo.A.real + t.expo.A.real.T))
        worst = min(worst, float(ev.min()))
    return worst


def _dampened(f: QGFunction, eps: float) -> QGFunction:
    """f(z) * exp(-eps |z|^2), still in the class."""
    d = f.space.dim
    out = [QGTerm(t.poly, QuadExponent(t.expo.A + 2.0 * eps * np.eye(d), t.expo.b, t.expo.c))
           for t in f.terms]
    return QGFunction(f.space, out, canonical=True)


def _twisted_quadrature(f: QGFunction, g: QGFunction, z: np.ndarray,
                        halfwidth: float, points: int) -> complex:
    """Tensor Gauss-Legendre quadrature of the twisted-product integral."""
    space = f.space
    n, hbar = space.n_dof, space.hbar
    nodes, weights = np.polynomial.legendre.leggauss(points)
    nodes = nodes * halfwidth
    weights = weights * halfwidth
    axes = [nodes] * space.dim

    F = f.evaluate_grid(axes)
    G = g.evaluate_grid(axes)
    wslice = [weights] * space.dim
    for arr, ws in ((F, wslice), (G, wslice)):
        for ax, w in enumerate(ws):
            shape = [1] * space.dim
            shape[ax] = len(w)
            arr *= w.reshape(shape)

    k = 2.0 / hbar
    if n == 1:
        x, p = z
        U = np.exp(1j * k * np.outer(nodes - x, nodes - p))      # (x1, p2)
        V = np.exp(-1j * k * np.outer(nodes - p, nodes - x))     # (p1, x2)
        S = F.T @ U                                              # (p1, p2)
        T = V.T @ S                                              # (x2, p2)
        val = np.sum(T * G)
    else:
        xs, ps = z[:n], z[n:]
        Us = [np.exp(1j * k * np.outer(nodes - xs[kk], nodes - ps[kk])) for kk in range(n)]
        Vs = [np.exp(-1j * k * np.outer(nodes - ps[kk], nodes - xs[kk])) for kk in range(n)]
        # contract f over z1 axes (x11,x12,p11,p12) against the product kernel
        T = np.einsum("abcd,ae,bf,cg,dh->ghef", F, Us[0], Us[1], Vs[0], Vs[1], optimize=True)
        val = np.sum(T * G)
    return complex(val / (math.pi * hbar) ** (2 * n))


def _rational_to_zero(xs: Sequence[float], ys: Sequence[complex]) -> complex:
    """Bulirsch-Stoer rational extrapolation to x = 0."""
    m = len(xs)
    c = list(ys)
    d = list(ys)
    est = ys[0]
    for k in range(1, m):
        new_c = [0j] * (m - k)
        new_d = [0j] * (m - k)
        for j in range(m - k):
            ratio = xs[j] / xs[j + k]
            diff = c[j + 1] - d[j]
            den = ratio * d[j] - c[j + 1]
            if den == 0:
                new_c[j], new_d[j] = c[j + 1], d[j]
            else:
                new_c[j] = ratio * d[j] * diff / den
                new_d[j] = c[j + 1] * diff / den
        est = est + new_c[0]
        c, d = new_c, new_d
    return est


_ORACLE_EPS_LADDER = (0.4, 0.3, 0.22, 0.16, 0.12, 0.09, 0.07, 0.055, 0.045)


def quadrature_star_oracle(f: QGFunction, g: QGFunction, z, cfg: StarConfig | None = None) -> complex:
    """Evaluate (f*g)(z) by quadrature of the twisted-product integral.

    Independent of the closed-form composition: pure grid sums.  Strictly
    decaying pairs are integrated directly with grid refinement.  Merely
    oscillatory pairs (polynomials, pure phases) are damped by
    exp(-eps |z|^2) and rational-extrapolated in eps; the damped values are
    (det-root) x exp of rational functions of eps, which Bulirsch-Stoer
    extrapolation reproduces to well below the acceptance threshold.
    Raises OracleNotConverged when refinements or extrapolants disagree
    beyond 1e-5 relative, or when the integrand grows on the real domain.
    """
    cfg = cfg or StarConfig()
    if f.space.n_dof > 2:
        raise ValueError("oracle supports N <= 2")
    z = np.asarray(z, dtype=float).reshape(-1)
    floor = min(_decay_floor(f), _decay_floor(g))
    if floor < -1e-10:
        raise OracleNotConverged("integrand grows on the truncated grid (Re A indefinite)")

    if floor > 1e-8:
        # honest Gaussian decay: box wide enough for the tails, grid fine
        # enough for the twisted kernel's oscillation across the box
        L = min(cfg.oracle_grid_halfwidth,
                max(4.0, math.sqrt(36.0 / floor) + float(np.abs(z).max())))
        pts = max(cfg.oracle_points_per_axis,
                  int(4.6 * L * L / (math.pi * f.space.hbar)) + 40) // 2 * 2
        if f.space.n_dof == 2:
            # memory/time: the kernel contraction holds P^4 tensors
            pts, refined = 44, 52
        else:
            refined = int(pts * 1.4) // 2 * 2
        vals = [_twisted_quadrature(f, g, z, L, p) for p in (pts, refined)]
        scale = max(abs(vals[-1]), 1e-9)
        if abs(vals[-1] - vals[-2]) > 1e-5 * scale:
            if f.space.n_dof == 2:
                raise OracleNotConverged("grid refinements disagree")
            vals.append(_twisted_quadrature(f, g, z, L, 2 * pts))
            if abs(vals[-1] - vals[-2]) > 1e-5 * max(abs(vals[-1]), 1e-9):
                raise OracleNotConverged("grid refinements disagree")
        return vals[-1]

    if f.space.n_dof == 2:
        raise OracleNotConverged("oscillatory N=2 grid would be too large")
    hbar = f.space.hbar
    vals = []
    for eps in _ORACLE_EPS_LADDER:
        L = math.sqrt(25.0 / eps)
        pts = (int(4.6 * L * L / (math.pi * hbar)) + 60) // 2 * 2
        vals.append(_twisted_quadrature(_dampened(f, eps), _dampened(g, eps), z, L, pts))
    full = _rational_to_zero(_ORACLE_EPS_LADDER, vals)
    drop = _rational_to_zero(_ORACLE_EPS_LADDER[:-1], vals[:-1])
    if abs(full - drop) > 1e-5 * max(1.0, abs(full)):
        raise OracleNotConverged("eps-extrapolation unstable")
    return full

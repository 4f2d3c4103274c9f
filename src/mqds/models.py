"""Model systems and their stationary phase-space eigenfunctions.

Three models:

* harmonic_oscillator:  H = (w/2)(p^2 + x^2),      N = 1
* damped_toy:           H = -g x p,                N = 1   (lift of xdot = -g x)
* damped_ho:            H = w(p1 x2 - p2 x1) - g(p1 x1 + p2 x2),  N = 2

Every family member is a Gaussian e^{-(eta_1 + eta_2 + ...)/2} times a
prefactor times L_n(eta_k) for each mode k, eta_k a quadratic form.  The
oscillator and the toy have one mode.  The damped oscillator is Bateman's
dual system: in u = (x1 - i x2)/sqrt(2), v = (p1 + i p2)/sqrt(2) it splits
into two toy modes with complex rates, H = -(g - iw) uv - (g + iw) conj(uv).
The two-sided eigen-equations H * F = F * H = E F hold with the spectra

    oscillator:  E_n    = hbar w (n + 1/2)
    damped toy:  E_n    = +/- i hbar g (n + 1/2)
    damped ho F: E_nm   = hbar w (m - n) - i hbar g (n + m + 1)
    damped ho G: mu_nm  = hbar w (n + m + 1) - i hbar g (n - m)

The ladder builds of W and the toy family check the closed forms; each
builds its member from the one below it, a rung at a time.  Within one
verification run (`verify.run_all`) the dho builders and the ladder builders
build each set of arguments once, so the rungs below n are shared.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import wraps
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .algebra import QGFunction, QGTerm, QuadExponent, VarSpace, poisson_bracket
from .gausspoly import integrate_partial
from .poly import Poly, _summed
from .star import star


class UnsupportedPair(Exception):
    """Pair transform of two delta-type factors in the same variable."""


_KINDS = ("harmonic_oscillator", "damped_toy", "damped_ho")


@dataclass(frozen=True)
class ModelId:
    kind: str
    omega: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown model '{self.kind}'")
        if self.omega <= 0 or self.gamma <= 0:
            raise ValueError("model parameters must be positive")

    @property
    def n_dof(self) -> int:
        return 2 if self.kind == "damped_ho" else 1

    @classmethod
    def oscillator(cls, omega: float = 1.0) -> "ModelId":
        return cls("harmonic_oscillator", omega=omega)

    @classmethod
    def toy(cls, gamma: float = 1.0) -> "ModelId":
        return cls("damped_toy", gamma=gamma)

    @classmethod
    def dho(cls, omega: float = 1.0, gamma: float = 1.0) -> "ModelId":
        return cls("damped_ho", omega=omega, gamma=gamma)


def _check_space(model: ModelId, space: VarSpace) -> None:
    if space.n_dof != model.n_dof:
        raise ValueError(f"model '{model.kind}' needs N={model.n_dof}, space has N={space.n_dof}")


def _sign(sign: str) -> float:
    """+1 or -1 for the sign of a toy or F family."""
    if sign not in ("+", "-"):
        raise ValueError(f"the family has signs '+' and '-', not '{sign}'")
    return 1.0 if sign == "+" else -1.0


def hamiltonian(model: ModelId, space: VarSpace) -> QGFunction:
    _check_space(model, space)
    d = space.dim
    if model.kind == "harmonic_oscillator":
        w = model.omega
        return QGFunction.from_poly(space, Poly(d, {(2, 0): w / 2, (0, 2): w / 2}))
    if model.kind == "damped_toy":
        return QGFunction.from_poly(space, Poly(d, {(1, 1): -model.gamma}))
    w, g = model.omega, model.gamma
    # variables (x1, x2, p1, p2)
    return QGFunction.from_poly(space, Poly(d, {
        (0, 1, 1, 0): w, (1, 0, 0, 1): -w,
        (1, 0, 1, 0): -g, (0, 1, 0, 1): -g,
    }))


def lift_dynamics(components: Sequence[Poly], space: VarSpace) -> QGFunction:
    """Hamiltonian lift H(x, p) = sum_k p_k X_k(x) of the flow xdot = X(x).

    Hamilton's equations for the result reproduce the flow exactly:
    {x_k, H} = X_k(x).
    """
    n = space.n_dof
    if len(components) != n:
        raise ValueError("one component per configuration variable required")
    H = Poly(space.dim)
    for k, X in enumerate(components):
        if X.dim != n:
            raise ValueError("vector-field components live on configuration space")
        lifted = X.affine_sub(np.eye(n, 2 * n))
        H = H + lifted.mul(Poly.variable(space.dim, n + k))
    return QGFunction.from_poly(space, H)


def koopman_apply(H: QGFunction, f: QGFunction) -> QGFunction:
    """Generator of classical evolution: L_H f = i {f, H}."""
    return poisson_bracket(f, H).scaled(1j)


# ---------------------------------------------------------------------------
# ladder variables
# ---------------------------------------------------------------------------

def ladder_set(model: ModelId, space: VarSpace) -> Dict[str, QGFunction]:
    """The model's ladder variables by name."""
    _check_space(model, space)
    s = 1.0 / math.sqrt(2.0 * space.hbar)
    if model.kind == "harmonic_oscillator":
        a = QGFunction.from_poly(space, Poly.linear([s, 1j * s]))
        return {"a": a, "a*": a.conjugate()}
    if model.kind == "damped_toy":
        return {"x": QGFunction.coordinate(space, 0), "p": QGFunction.coordinate(space, 1)}
    a1 = QGFunction.from_poly(space, Poly.linear([s, 1j * s, 0, 0]))
    a2 = QGFunction.from_poly(space, Poly.linear([0, 0, 1j * s, -s]))
    return {"a1": a1, "a2": a2, "a1*": a1.conjugate(), "a2*": a2.conjugate()}


# `verify.run_all` sets a fresh dict for the run and resets it when the run
# ends; unset, every builder computes afresh and nothing is kept.  A reused
# value is the result of the same star products in the same order, so it is
# bit-identical to a rebuilt one.
_RUN_MEMO: ContextVar[Dict[tuple, QGFunction] | None] = ContextVar("mqds_run_memo", default=None)


def _built_once_per_run(build: Callable[..., QGFunction]) -> Callable[..., QGFunction]:
    """Within a run memo, `build` runs once per set of arguments."""
    @wraps(build)
    def builder(*args, **kwargs):
        memo = _RUN_MEMO.get()
        if memo is None:
            return build(*args, **kwargs)
        key = (build.__name__, args, tuple(sorted(kwargs.items())))
        out = memo.get(key)
        if out is None:
            out = memo[key] = build(*args, **kwargs)
        return out
    return builder


# ---------------------------------------------------------------------------
# harmonic oscillator family
# ---------------------------------------------------------------------------

def laguerre_coeffs(n: int) -> List[float]:
    """Coefficients of L_n (three-term recurrence), constant term first."""
    if n == 0:
        return [1.0]
    prev, cur = [1.0], [1.0, -1.0]
    for k in range(1, n):
        nxt = [0.0] * (k + 2)
        for j, c in enumerate(cur):
            nxt[j] += (2 * k + 1) * c / (k + 1)
            nxt[j + 1] -= c / (k + 1)
        for j, c in enumerate(prev):
            nxt[j] -= k * c / (k + 1)
        prev, cur = cur, nxt
    return cur


def _laguerre_member(space: VarSpace, A: np.ndarray, norm: float,
                     modes: Sequence[Tuple[int, Poly]]) -> QGFunction:
    """(-1)^(n_1 + n_2 + ...) norm e^{-z.A z/2} L_{n_1}(eta_1) L_{n_2}(eta_2) ...
    for modes [(n_k, eta_k)], where z.A z = eta_1 + eta_2 + ...: in each mode a
    W or toy member of the mode's quadratic form eta_k."""
    poly = None
    for n, eta in modes:
        powers = [Poly.const(space.dim, 1.0)]
        for _ in range(n):
            powers.append(powers[-1].mul(eta))
        factor = _summed(space.dim, [p.scaled(c) for p, c in zip(powers, laguerre_coeffs(n))])
        poly = factor if poly is None else poly.mul(factor)
    sign = (-1.0) ** sum(n for n, _ in modes)
    return QGFunction(space, [QGTerm(poly.scaled(sign * norm), QuadExponent(A, np.zeros(space.dim)))])


def oscillator_wigner(n: int, space: VarSpace) -> QGFunction:
    """W_n = ((-1)^n / pi hbar) e^{-xi/2} L_n(xi), xi = 2(x^2 + p^2)/hbar."""
    if not (0 <= n <= 12):
        raise ValueError("supported index range is 0 <= n <= 12")
    if space.n_dof != 1:
        raise ValueError("oscillator family lives on N=1")
    hbar = space.hbar
    xi = Poly(2, {(2, 0): 2.0 / hbar, (0, 2): 2.0 / hbar})
    return _laguerre_member(space, (2.0 / hbar) * np.eye(2), 1.0 / (math.pi * hbar), [(n, xi)])


@_built_once_per_run
def oscillator_wigner_ladder(n: int, space: VarSpace) -> QGFunction:
    """W_n from the star-Fock construction a*^n * W_0 * a^n / n!, a rung at a
    time: W_n = a* * W_{n-1} * a / n."""
    if not (0 <= n <= 12):
        raise ValueError("supported index range is 0 <= n <= 12")
    if n == 0:
        return oscillator_wigner(0, space)
    lad = ladder_set(ModelId.oscillator(), space)
    return star(star(lad["a*"], oscillator_wigner_ladder(n - 1, space)), lad["a"]).scaled(1.0 / n)


# ---------------------------------------------------------------------------
# damped toy model family
# ---------------------------------------------------------------------------

def toy_resonant(n: int, sign: str, space: VarSpace) -> QGFunction:
    """F^s_n = ((-1)^n / pi hbar) e^{-eta_s/2} L_n(eta_s), eta_s = s 4i x p / hbar.

    The sign-resolved variable eta_s makes the plus ground state
    e^{-2ixp/hbar} (killed by p* from the left and *x from the right) and
    the minus family its complex conjugate.
    """
    if not (0 <= n <= 12):
        raise ValueError("supported index range is 0 <= n <= 12")
    if space.n_dof != 1:
        raise ValueError("toy family lives on N=1")
    s = _sign(sign)
    hbar = space.hbar
    eta = Poly(2, {(1, 1): s * 4j / hbar})
    A = np.array([[0.0, s * 2j / hbar], [s * 2j / hbar, 0.0]])
    return _laguerre_member(space, A, 1.0 / (math.pi * hbar), [(n, eta)])


@_built_once_per_run
def toy_resonant_ladder(n: int, sign: str, space: VarSpace) -> QGFunction:
    """F^+_n = (i/hbar)^n / n! x^n * F^+_0 * p^n, a rung at a time:
    F^+_n = (i/hbar n) x * F^+_{n-1} * p, and F^-_n = (-i/hbar n) p * F^-_{n-1} * x."""
    s = _sign(sign)
    if not (0 <= n <= 12):
        raise ValueError("supported index range is 0 <= n <= 12")
    if n == 0:
        return toy_resonant(0, sign, space)
    x = QGFunction.coordinate(space, 0)
    p = QGFunction.coordinate(space, 1)
    left, right = (x, p) if s > 0 else (p, x)
    out = star(star(left, toy_resonant_ladder(n - 1, sign, space)), right)
    return out.scaled(s * 1j / (space.hbar * n))


# ---------------------------------------------------------------------------
# damped harmonic oscillator families
# ---------------------------------------------------------------------------

# 2uv = (x1 p1 + x2 p2) + i(x1 p2 - x2 p1) for the modes u, v of the module
# docstring, with exact coefficients
_TWO_UV = Poly(4, {(1, 0, 1, 0): 1.0, (0, 1, 0, 1): 1.0, (1, 0, 0, 1): 1j, (0, 1, 1, 0): -1j})


@_built_once_per_run
def dho_f(n: int, m: int, sign: str, space: VarSpace) -> QGFunction:
    """Integrable damped-oscillator family of unit integral, in closed form:
    F^+_nm = (-1)^(n+m) (pi hbar)^-2 e^{(2i/hbar) x.p} L_n(-4i uv/hbar) L_m(-4i conj(uv)/hbar),
    the toy F^- member in each mode.  The minus family is the complex conjugate.
    """
    if not (0 <= n <= 6 and 0 <= m <= 6):
        raise ValueError("supported index range is 0 <= n, m <= 6")
    if space.n_dof != 2:
        raise ValueError("damped-oscillator family lives on N=2")
    if _sign(sign) < 0:
        return dho_f(n, m, "+", space).conjugate()
    hbar = space.hbar
    A = np.zeros((4, 4), dtype=complex)
    A[0, 2] = A[2, 0] = -2j / hbar
    A[1, 3] = A[3, 1] = -2j / hbar
    k = 2j / hbar
    return _laguerre_member(space, A, 1.0 / (math.pi * hbar) ** 2,
                            [(n, _TWO_UV.scaled(-k)), (m, _TWO_UV.conj().scaled(-k))])


@_built_once_per_run
def dho_g(n: int, m: int, space: VarSpace) -> QGFunction:
    """Non-integrable companion family, G_00 = e^{(2/hbar)(x1 p2 - x2 p1)} and
    G_nm = (-1)^(n+m) G_00 L_m(4i uv/hbar) L_n(-4i conj(uv)/hbar) for n >= m.
    The n < m members are the conjugates of their mirror partners, so that
    conj(G_nm) = G_mn holds exactly, not merely to rounding.
    """
    if not (0 <= n <= 6 and 0 <= m <= 6):
        raise ValueError("supported index range is 0 <= n, m <= 6")
    if space.n_dof != 2:
        raise ValueError("damped-oscillator family lives on N=2")
    if n < m:
        return dho_g(m, n, space).conjugate()
    hbar = space.hbar
    A = np.zeros((4, 4))
    A[0, 3] = A[3, 0] = -2.0 / hbar
    A[1, 2] = A[2, 1] = 2.0 / hbar
    k = 2j / hbar
    return _laguerre_member(space, A, 1.0, [(m, _TWO_UV.scaled(k)), (n, _TWO_UV.conj().scaled(-k))])


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def spectrum(model: ModelId, indices, sign: str = "+", family: str | None = None) -> complex:
    """Eigenvalue in units of hbar (scale by the space's hbar).  The oscillator
    and the G family have no sign; the toy and F families take '+' or '-'."""
    indices = tuple(int(i) for i in (indices if hasattr(indices, "__len__") else (indices,)))
    if model.kind == "harmonic_oscillator":
        (n,) = indices
        if n < 0:
            raise ValueError("index must be nonnegative")
        return complex(model.omega * (n + 0.5))
    if model.kind == "damped_toy":
        (n,) = indices
        if n < 0:
            raise ValueError("index must be nonnegative")
        return complex(_sign(sign) * 1j * model.gamma * (n + 0.5))
    n, m = indices
    if n < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    fam = family or "F"
    if fam == "F":
        val = model.omega * (m - n) - 1j * model.gamma * (n + m + 1)
        return complex(val.conjugate() if _sign(sign) < 0 else val)
    if fam == "G":
        return complex(model.omega * (n + m + 1) - 1j * model.gamma * (n - m))
    raise ValueError(f"unknown family '{fam}'")


def eigenvalue(model: ModelId, space: VarSpace, indices, sign: str = "+",
               family: str | None = None) -> complex:
    """Spectrum entry scaled by the space's hbar."""
    return space.hbar * spectrum(model, indices, sign, family)


# ---------------------------------------------------------------------------
# complex scaling
# ---------------------------------------------------------------------------

def conjugation_by_V(f: QGFunction, lam: float) -> QGFunction:
    """V_lam * f * V_{-lam} realized as the substitution X -> e^{-i lam} X,
    P -> e^{+i lam} P (orientation fixed on generators; validated against
    the star series of V_lam order by order in the verification suite)."""
    if f.space.n_dof != 1:
        raise ValueError("complex scaling is defined on the N=1 (X, P) plane")
    M = np.diag([np.exp(-1j * lam), np.exp(1j * lam)])
    return f.substitute_linear(M)


def hyperbolic_frame_matrix() -> np.ndarray:
    """Substitution matrix sending an (X, P)-plane function to (x, p) via
    X = (x + p)/sqrt(2), P = (x - p)/sqrt(2); the frame in which
    -gamma x p becomes (gamma/2)(P^2 - X^2)."""
    return np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# wavefunctions and the resonant-pair transform
# ---------------------------------------------------------------------------

@dataclass
class WaveFunction:
    """Configuration-space function: poly x Gaussian terms plus derivative-of-
    delta atoms at the origin.  `smooth` terms are QGTerms over the N
    variables; `atoms` are (derivative orders per variable, coefficient)."""

    n_vars: int
    smooth: List[QGTerm] = field(default_factory=list)
    atoms: List[Tuple[Tuple[int, ...], complex]] = field(default_factory=list)

    @classmethod
    def monomial(cls, n_vars: int, expo: Tuple[int, ...], coeff: complex = 1.0) -> "WaveFunction":
        return cls(n_vars, smooth=[QGTerm(Poly.monomial(n_vars, expo, coeff), QuadExponent.zero(n_vars))])

    @classmethod
    def constant(cls, n_vars: int, coeff: complex = 1.0) -> "WaveFunction":
        return cls.monomial(n_vars, (0,) * n_vars, coeff)

    @classmethod
    def gaussian(cls, n_vars: int, A, b=None, c: complex = 0.0, coeff: complex = 1.0) -> "WaveFunction":
        b = np.zeros(n_vars) if b is None else b
        return cls(n_vars, smooth=[QGTerm(Poly.const(n_vars, coeff), QuadExponent(A, b, c))])

    @classmethod
    def delta(cls, orders: Tuple[int, ...], coeff: complex = 1.0) -> "WaveFunction":
        return cls(len(orders), atoms=[(tuple(orders), coeff)])

    @classmethod
    def oscillator_ground(cls, hbar: float) -> "WaveFunction":
        """Normalized e^{-x^2/(2 hbar)} ground state."""
        return cls.gaussian(1, np.array([[1.0 / hbar]]), coeff=(math.pi * hbar) ** -0.25)

    @classmethod
    def toy_plus(cls, n: int) -> "WaveFunction":
        """x^n (resonant state paired with the derivative-of-delta below)."""
        return cls.monomial(1, (n,))

    @classmethod
    def toy_minus(cls, n: int, hbar: float) -> "WaveFunction":
        """(-i hbar)^n delta^{(n)}(x)."""
        return cls.delta((n,), (-1j * hbar) ** n)


def wigner_pair_transform(psi1: WaveFunction, psi2: WaveFunction, space: VarSpace) -> QGFunction:
    """Phase-space function of a resonant pair:

        T(z) = (2 pi)^{-N} int dy e^{-i p.y} conj(psi1)(x + hbar y/2)
                                         psi2(x - hbar y/2)

    For psi1 = psi2 a Hilbert-space state this is its Wigner function
    (a normalized Gaussian ground state maps exactly onto the oscillator
    ground-state Wigner function); for resonant pairs it produces the
    stationary eigenfunction families, e.g. (constant, delta) gives the
    plus ground state of the toy model with its standard prefactor.
    """
    n = space.n_dof
    hbar = space.hbar
    if psi1.n_vars != n or psi2.n_vars != n:
        raise ValueError("wavefunction arity does not match the space")
    if psi1.atoms and psi2.atoms:
        raise UnsupportedPair("delta-type factors on both sides of the pair")

    pref = (2.0 * math.pi) ** (-n)
    eye, zero = np.eye(n), np.zeros((n, n))
    y = list(range(2 * n, 3 * n))
    # each factor lifted once onto (x.., p.., y..): conj psi1 at x + hbar y/2
    # and psi2 at x - hbar y/2
    left = [QGTerm(t.poly.conj(), t.expo.conj()).substituted(np.hstack([eye, zero, hbar / 2.0 * eye]))
            for t in psi1.smooth]
    right = [t.substituted(np.hstack([eye, zero, -hbar / 2.0 * eye])) for t in psi2.smooth]
    A_phase = np.zeros((3 * n, 3 * n), dtype=complex)
    A_phase[n:2 * n, 2 * n:] = A_phase[2 * n:, n:2 * n] = 1j * eye

    def phased(t: QGTerm) -> QGTerm:
        """t e^{-i p.y}."""
        return QGTerm(t.poly, QuadExponent(t.expo.A + A_phase, t.expo.b, t.expo.c))

    def sifted(coeff: complex, orders, other: QGTerm, y_sign: float) -> QGTerm:
        """(2 pi)^-N int dy other e^{-i p.y} coeff delta^(orders)(x - y_sign hbar y/2):
        the y-derivatives of `other` e^{-i p.y} at y = y_sign 2x/hbar."""
        t = phased(other)
        factor = complex(coeff)
        for k, order in enumerate(orders):
            factor *= (2.0 / hbar) ** (order + 1) * ((-1.0) ** order if y_sign < 0 else 1.0)
            for _ in range(order):
                t = t.diff(2 * n + k)
        t = t.substituted(np.vstack([np.eye(2 * n), np.hstack([y_sign * 2.0 / hbar * eye, zero])]))
        return QGTerm(t.poly.scaled(factor * pref), t.expo)

    terms = []
    for r in right:
        for l in left:
            t = phased(l.mul(r))
            A, b, c, poly = integrate_partial(t.expo.A, t.expo.b, t.expo.c, t.poly, y)
            terms.append(QGTerm(poly.scaled(pref), QuadExponent(A, b, c)))
        # conj(delta atom) sits at x + hbar y/2 = 0  ->  y = -2x/hbar
        terms += [sifted(np.conj(coeff), orders, r, -1.0) for orders, coeff in psi1.atoms]
    for orders, coeff in psi2.atoms:
        # delta atom at x - hbar y/2 = 0  ->  y = +2x/hbar
        terms += [sifted(coeff, orders, l, 1.0) for l in left]
    return QGFunction(space, terms)

"""Machine-runnable checks for every identity the engine implements.

Each check produces CheckEntry records (name from a fixed registry, residual,
tolerance, pass flag); `run_all` executes the registry at desk scale and
aggregates a VerificationReport.  A failing entry never aborts sibling
checks; exceptions inside a check are recorded as failed entries.

Default tolerances (ordered by the amount of numerical machinery involved):
1e-10 for exact constructions (eigen-equations, ladder equivalences),
1e-9 for Gaussian-composition identities (star orthogonality),
1e-8 for Fresnel integrals (marginals, normalization),
1e-6 for quadrature-oracle comparisons.
"""

from __future__ import annotations

import inspect
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .algebra import QGFunction, QGTerm, QuadExponent, VarSpace, gaussian_test, poisson_bracket
from .gausspoly import NonIntegrable
from .models import (ModelId, WaveFunction, conjugation_by_V, dho_f, dho_g, eigenvalue,
                     hamiltonian, hyperbolic_frame_matrix, koopman_apply, ladder_set,
                     oscillator_wigner, oscillator_wigner_ladder, toy_resonant,
                     toy_resonant_ladder, wigner_pair_transform)
from .poly import Poly
from .star import (StarConfig, classical_flow_matrix, evolve, moyal_bracket,
                   quadrature_star_oracle, star, star_exp_closed_taylor, star_exp_series)

CHECK_REGISTRY = (
    "eigen_residual",
    "star_orthogonality",
    "marginal_delta",
    "normalization",
    "identity_resolution",
    "evolution_match",
    "complex_scaling_match",
    "koopman_zero_mode",
    "conjugation_symmetry",
    "pair_transform_match",
    "classical_limit",
)

DEFAULT_TOLERANCES = {
    "eigen_residual": 1e-10,
    "star_orthogonality": 1e-9,
    "marginal_delta": 1e-8,
    "normalization": 1e-8,
    "identity_resolution": 1e-3,
    "evolution_match": 1e-10,
    "complex_scaling_match": 1e-10,
    "koopman_zero_mode": 1e-12,
    "conjugation_symmetry": 1e-12,
    "pair_transform_match": 1e-10,
    "classical_limit": 1e-12,
}


@dataclass
class CheckEntry:
    name: str
    params: Dict[str, object]
    residual: float
    tolerance: float
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass
class VerificationReport:
    entries: List[CheckEntry] = field(default_factory=list)

    def extend(self, other: "VerificationReport") -> None:
        self.entries.extend(other.entries)

    @property
    def n_passed(self) -> int:
        return sum(1 for e in self.entries if e.passed)

    @property
    def n_failed(self) -> int:
        return len(self.entries) - self.n_passed

    @property
    def all_passed(self) -> bool:
        return self.n_failed == 0

    def failed_entries(self) -> List[CheckEntry]:
        return [e for e in self.entries if not e.passed]

    def to_json_dict(self) -> dict:
        # wall_time is deliberately excluded: reports must be byte-stable
        return {
            "checks": [
                {
                    "name": e.name,
                    "params": {k: _json_value(v) for k, v in sorted(e.params.items())},
                    "residual": float(e.residual),
                    "tolerance": float(e.tolerance),
                    "passed": e.passed,
                }
                for e in self.entries
            ],
            "summary": {"passed": self.n_passed, "failed": self.n_failed},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def _json_value(v):
    if isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, float):
        return float(v)
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (tuple, list)):
        return [_json_value(x) for x in v]
    return str(v)


class _Recorder:
    def __init__(self, name: str, tolerance: float):
        self.name = name
        self.tolerance = tolerance
        self.entries: List[CheckEntry] = []

    def add(self, residual: float, tolerance: float | None = None, **params) -> None:
        self.entries.append(CheckEntry(self.name, params, float(residual),
                                       self.tolerance if tolerance is None else tolerance,
                                       wall_time=0.0))

    def fail(self, message: str, **params) -> None:
        self.entries.append(CheckEntry(self.name, {"error": message, **params},
                                       math.inf, self.tolerance))

    def report(self) -> VerificationReport:
        return VerificationReport(self.entries)


def relative_gap(lhs: QGFunction, rhs: QGFunction) -> float:
    """|lhs - rhs| / max(|lhs|, |rhs|) in coeff_norm.  Scaled by the results
    themselves: for star products, |f||g| does not bound |f*g| (their ratio
    reaches 2700 on the random instances of check_conjugation)."""
    scale = max(lhs.coeff_norm(), rhs.coeff_norm())
    return (lhs - rhs).coeff_norm() / scale if scale else 0.0


def _rel_two_sided_eigen(H: QGFunction, F: QGFunction, E: complex) -> float:
    scale = abs(E) * F.coeff_norm()
    r = (star(H, F) - F.scaled(E)).coeff_norm() + (star(F, H) - F.scaled(E)).coeff_norm()
    return r / scale


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_eigen(hbar: float = 1.0, omega: float = 1.0, gamma: float = 1.0,
                max_index: int = 8, max_index_2d: int = 4,
                tolerance: float | None = None) -> VerificationReport:
    """Two-sided eigen-equations for all four families, plus the CCRs and the
    ladder/closed-form equivalences that anchor the constructions."""
    rec = _Recorder("eigen_residual", tolerance or DEFAULT_TOLERANCES["eigen_residual"])
    sp1 = VarSpace(1, hbar)
    sp2 = VarSpace(2, hbar)
    osc, toy, dho = ModelId.oscillator(omega), ModelId.toy(gamma), ModelId.dho(omega, gamma)

    H = hamiltonian(osc, sp1)
    for n in range(max_index + 1):
        W = oscillator_wigner(n, sp1)
        rec.add(_rel_two_sided_eigen(H, W, eigenvalue(osc, sp1, n)), family="W", n=n)
    for n in range(max_index + 1):
        Wl = oscillator_wigner_ladder(n, sp1)
        W = oscillator_wigner(n, sp1)
        rec.add((Wl - W).coeff_norm() / W.coeff_norm(), family="W", n=n, identity="ladder_closed")

    H = hamiltonian(toy, sp1)
    for sign in "+-":
        for n in range(max_index + 1):
            F = toy_resonant(n, sign, sp1)
            rec.add(_rel_two_sided_eigen(H, F, eigenvalue(toy, sp1, n, sign)),
                    family="F_toy", n=n, sign=sign)
            Fl = toy_resonant_ladder(n, sign, sp1)
            rec.add((Fl - F).coeff_norm() / F.coeff_norm(),
                    family="F_toy", n=n, sign=sign, identity="ladder_closed")

    H = hamiltonian(dho, sp2)
    for sign in "+-":
        for n in range(max_index_2d + 1):
            for m in range(max_index_2d + 1):
                F = dho_f(n, m, sign, sp2)
                rec.add(_rel_two_sided_eigen(H, F, eigenvalue(dho, sp2, (n, m), sign, "F")),
                        family="F_dho", n=n, m=m, sign=sign)
    for n in range(max_index_2d + 1):
        for m in range(max_index_2d + 1):
            G = dho_g(n, m, sp2)
            rec.add(_rel_two_sided_eigen(H, G, eigenvalue(dho, sp2, (n, m), "none", "G")),
                    family="G_dho", n=n, m=m)

    # commutation relations of the ladder variables
    one1 = QGFunction.constant(sp1, 1.0)
    lad = ladder_set(osc, sp1)
    rec.add((moyal_bracket(lad["a"], lad["a*"]) - one1).coeff_norm(),
            tolerance=1e-12, identity="ccr", pair="a,a*")
    lad = ladder_set(dho, sp2)
    one2 = QGFunction.constant(sp2, 1.0)
    for u, v, expect in (("a1", "a2", 0.0), ("a1", "a1*", 0.0), ("a2", "a2*", 0.0),
                         ("a1", "a2*", 1.0), ("a2", "a1*", 1.0)):
        r = (moyal_bracket(lad[u], lad[v]) - one2.scaled(expect)).coeff_norm()
        rec.add(r, tolerance=1e-12, identity="ccr", pair=f"{u},{v}")
    return rec.report()


def _orthogonality_entries(rec: _Recorder, members: Dict[Tuple, QGFunction],
                           norm_const: float, family: str) -> None:
    for idx1, F in members.items():
        scale = F.coeff_norm()
        for idx2, G in members.items():
            prod = star(F, G).scaled(norm_const)
            ref = F if idx1 == idx2 else QGFunction.zero(F.space)
            rec.add((prod - ref).coeff_norm() / scale,
                    family=family, left=list(idx1), right=list(idx2))


def check_star_orthogonality(hbar: float = 1.0, omega: float = 1.0, gamma: float = 1.0,
                             max_index: int = 6, max_index_2d: int = 2,
                             tolerance: float | None = None,
                             oracle_points: int = 10, seed: int = 0) -> VerificationReport:
    """(2 pi hbar)^N F_n * F_m = delta_nm F_n for the three integrable families,
    plus quadrature-oracle validation of the Gaussian composition rule."""
    rec = _Recorder("star_orthogonality", tolerance or DEFAULT_TOLERANCES["star_orthogonality"])
    sp1, sp2 = VarSpace(1, hbar), VarSpace(2, hbar)

    W = {(n,): oscillator_wigner(n, sp1) for n in range(max_index + 1)}
    _orthogonality_entries(rec, W, 2 * math.pi * hbar, "W")
    for sign in "+-":
        F = {(n,): toy_resonant(n, sign, sp1) for n in range(max_index + 1)}
        _orthogonality_entries(rec, F, 2 * math.pi * hbar, f"F_toy{sign}")
    Fd = {(n, m): dho_f(n, m, "+", sp2)
          for n in range(max_index_2d + 1) for m in range(max_index_2d + 1)}
    _orthogonality_entries(rec, Fd, (2 * math.pi * hbar) ** 2, "F_dho+")

    # oracle validation: closed-form star against the twisted-integral
    # quadrature on strictly integrable instances (family members as they
    # are when decaying, damped by a Gaussian otherwise).
    rng = np.random.default_rng(seed)
    cfg = StarConfig()
    damp = QGFunction.from_exponent(sp1, 0.6 * np.eye(2))
    shifted = gaussian_test(sp1, 0.9, center=[0.7, -0.4])
    # cases are chosen with closed-form values of honest magnitude: orthogonal
    # pairs vanish identically and carry no relative-error information
    cases = [
        ("W0*W0", W[(0,)], W[(0,)]),
        ("W2*W2", W[(2,)], W[(2,)]),
        ("W3*W3", W[(3,)], W[(3,)]),
        ("W1*shifted_gauss", W[(1,)], shifted),
        ("dampF1+*dampF1+", toy_resonant(1, "+", sp1).mul(damp), toy_resonant(1, "+", sp1).mul(damp)),
        ("dampF0+*dampF2+", toy_resonant(0, "+", sp1).mul(damp), toy_resonant(2, "+", sp1).mul(damp)),
        ("dampF2-*dampF2-", toy_resonant(2, "-", sp1).mul(damp), toy_resonant(2, "-", sp1).mul(damp)),
        ("dampF0-*W2", toy_resonant(0, "-", sp1).mul(damp), W[(2,)]),
        ("W2*dampF1+", W[(2,)], toy_resonant(1, "+", sp1).mul(damp)),
        ("dampF1-*dampF1+", toy_resonant(1, "-", sp1).mul(damp), toy_resonant(1, "+", sp1).mul(damp)),
    ]
    for label, f, g in cases[:oracle_points]:
        z = rng.uniform(-1.2, 1.2, size=2)
        closed = star(f, g).evaluate(z)
        try:
            quad = quadrature_star_oracle(f, g, z, cfg)
            rec.add(abs(closed - quad) / max(abs(closed), 1e-12), tolerance=1e-6,
                    check="oracle_agreement", case=label, z=[round(float(v), 6) for v in z])
        except Exception as exc:  # noqa: BLE001 - recorded, never aborts siblings
            rec.fail(f"oracle failed: {exc}", check="oracle_agreement", case=label)
    return rec.report()


def _marginal_test_functions(space: VarSpace, direction: str) -> List[Tuple[str, QGFunction, complex]]:
    """The documented 9-member family: Gaussian widths {0.5, 1, 2} times
    monomials of degree <= 2 in the marginal variables; returns
    (label, test, value at the origin)."""
    n = space.n_dof
    d = space.dim
    offset = 0 if direction == "x" else n
    if n == 1:
        monos = [((0,), 1.0), ((1,), 0.0), ((2,), 0.0)]
    else:
        monos = [((0, 0), 1.0), ((1, 0), 0.0), ((1, 1), 0.0)]
    out = []
    for width in (0.5, 1.0, 2.0):
        A = np.zeros((d, d))
        for k in range(n):
            A[offset + k, offset + k] = 1.0 / width**2
        for mono, at0 in monos:
            e = [0] * d
            for k, power in enumerate(mono):
                e[offset + k] = power
            f = QGFunction(space, [QGTerm(Poly(d, {tuple(e): 1.0}), QuadExponent(A, np.zeros(d)))])
            label = f"w={width},deg={sum(mono)}"
            out.append((label, f, at0))
    return out


def _grid_pair_reference(f: QGFunction, test: QGFunction, points: int = 140) -> complex:
    """Independent tensor Gauss-Legendre quadrature of int f * test.

    Each axis spans 12.7 / sqrt(min over terms of Re A_ii) either side of the
    origin, where the slowest Gaussian of the product has fallen to e^-80, so
    the box follows the product's own width at every hbar."""
    prod = f.mul(test)
    nodes, weights = np.polynomial.legendre.leggauss(points)
    axes, axis_weights = [], []
    for i in range(prod.space.dim):
        halfwidth = 12.7 / math.sqrt(min(t.expo.A[i, i].real for t in prod.terms))
        axes.append(nodes * halfwidth)
        axis_weights.append(weights * halfwidth)
    total = prod.evaluate_grid(axes)
    for w in reversed(axis_weights):
        total = total @ w
    return complex(total)


def check_marginals(hbar: float = 1.0, omega: float = 1.0, gamma: float = 1.0,
                    tolerance: float | None = None) -> VerificationReport:
    """Weak-form delta marginals of the resonant families: pairing against
    each member of the documented test family equals the test's value at the
    origin.  The oscillator family has honest Gaussian marginals instead, so
    its pairings are checked against an independent grid quadrature."""
    rec = _Recorder("marginal_delta", tolerance or DEFAULT_TOLERANCES["marginal_delta"])
    sp1, sp2 = VarSpace(1, hbar), VarSpace(2, hbar)

    def delta_form_entry(F, space, direction, **params):
        worst = 0.0
        try:
            for label, test, at0 in _marginal_test_functions(space, direction):
                val = F.pair(test)
                worst = max(worst, abs(val - at0) / max(1.0, abs(at0)))
        except NonIntegrable as exc:
            rec.fail(f"marginal pairing not integrable: {exc}", direction=direction, **params)
            return
        rec.add(worst, direction=direction, **params)

    for sign in "+-":
        for n in (0, 1, 2):
            F = toy_resonant(n, sign, sp1)
            for direction in "xp":
                delta_form_entry(F, sp1, direction, family="F_toy", n=n, sign=sign)
    for (n, m) in ((0, 0), (1, 1), (1, 0)):
        F = dho_f(n, m, "+", sp2)
        for direction in "xp":
            delta_form_entry(F, sp2, direction, family="F_dho", n=n, m=m, sign="+")
    for n in (0, 1, 2):
        W = oscillator_wigner(n, sp1)
        for direction in "xp":
            worst = 0.0
            for label, test, at0 in _marginal_test_functions(sp1, direction):
                val = W.pair(test)
                ref = _grid_pair_reference(W, test)
                worst = max(worst, abs(val - ref) / max(1.0, abs(ref)))
            rec.add(worst, family="W", n=n, direction=direction, reference="quadrature")
    return rec.report()


def check_normalization(hbar: float = 1.0, omega: float = 1.0, gamma: float = 1.0,
                        max_index: int = 8, max_index_2d: int = 2,
                        tolerance: float | None = None) -> VerificationReport:
    """gaussian_integral of every normalized family member equals 1."""
    rec = _Recorder("normalization", tolerance or DEFAULT_TOLERANCES["normalization"])
    sp1, sp2 = VarSpace(1, hbar), VarSpace(2, hbar)
    for n in range(max_index + 1):
        rec.add(abs(oscillator_wigner(n, sp1).gaussian_integral() - 1.0), family="W", n=n)
    for sign in "+-":
        for n in range(max_index + 1):
            rec.add(abs(toy_resonant(n, sign, sp1).gaussian_integral() - 1.0),
                    family="F_toy", n=n, sign=sign)
    for sign in "+-":
        for n in range(max_index_2d + 1):
            for m in range(max_index_2d + 1):
                rec.add(abs(dho_f(n, m, sign, sp2).gaussian_integral() - 1.0),
                        family="F_dho", n=n, m=m, sign=sign)
    return rec.report()


def check_identity_resolution(hbar: float = 1.0, n_max: int = 12,
                              tolerance: float | None = None) -> VerificationReport:
    """Partial sums of the family resolutions converge weakly to (2 pi hbar)^-1.

    The oscillator sum is paired with a real Gaussian.  The toy-model sum is
    paired with a chirality-matched integrable test e^{-|z|^2/2 - 2ixp/hbar}:
    against purely real Gaussian tests the Laguerre generating function of
    the pairings has unit-modulus singularities and the partial sums only
    converge in Abel's sense, while the matched test makes the convergence
    geometric and monotone.
    """
    rec = _Recorder("identity_resolution",
                    tolerance or DEFAULT_TOLERANCES["identity_resolution"])
    sp = VarSpace(1, hbar)

    def run(label: str, member_fn: Callable[[int], QGFunction], test: QGFunction) -> None:
        ref = test.gaussian_integral() / (2 * math.pi * hbar)
        partial = QGFunction.zero(sp)
        residuals = []
        for n in range(n_max + 1):
            partial = partial + member_fn(n)
            if n >= 2 and n % 2 == 0:
                residuals.append(abs(partial.pair(test) - ref))
        increases = sum(1 for i in range(len(residuals) - 1) if residuals[i + 1] >= residuals[i])
        rec.add(float(increases), tolerance=0.5, family=label, kind="monotone",
                residuals=[float(f"{r:.6e}") for r in residuals])
        rec.add(residuals[-1] / residuals[0], family=label, kind="final_ratio")

    # probe at the family's intrinsic width sqrt(hbar) so the geometric
    # convergence rate is hbar-independent
    run("W", lambda n: oscillator_wigner(n, sp), gaussian_test(sp, math.sqrt(hbar)))
    A = np.array([[1.0 / hbar, 2j / hbar], [2j / hbar, 1.0 / hbar]])
    matched = QGFunction.from_exponent(sp, A)
    run("F_toy", lambda n: toy_resonant(n, "+", sp), matched)
    return rec.report()


def check_evolution(hbar: float = 1.0, omega: float = 1.0, gamma: float = 1.0,
                    order: int = 8, tolerance: float | None = None) -> VerificationReport:
    """Star-exponential checks: series vs closed form through t^order, the
    evolution equation i hbar dU/dt = H * U order by order, Moyal bracket
    degeneration to i hbar {.,.} for the quadratic Hamiltonians, and
    classical-characteristic transport of a displaced Gaussian."""
    if order > 8:
        raise ValueError("evolution check capped at order 8")
    tol = tolerance or DEFAULT_TOLERANCES["evolution_match"]
    rec = _Recorder("evolution_match", tol)
    sp = VarSpace(1, hbar)
    for model in (ModelId.oscillator(omega), ModelId.toy(gamma)):
        H = hamiltonian(model, sp)
        series = star_exp_series(H, order)
        closed = star_exp_closed_taylor(model, order, sp)
        worst = max((series[k] - closed[k]).coeff_norm() / max(series[k].coeff_norm(), 1e-300)
                    for k in range(order + 1))
        rec.add(worst, model=model.kind, kind="series_vs_closed", order=order)

        worst = 0.0
        for k in range(order):
            lhs = series[k + 1].scaled(1j * hbar * (k + 1))
            rhs = star(H, series[k])
            worst = max(worst, (lhs - rhs).coeff_norm() / max(rhs.coeff_norm(), 1e-300))
        rec.add(worst, model=model.kind, kind="evolution_equation", order=order)

        f = gaussian_test(sp, 0.9, center=[0.8, -0.5])
        worst = 0.0
        rng = np.random.default_rng(3)
        for _ in range(3):
            g = QGFunction.from_exponent(sp, np.eye(2) * rng.uniform(0.5, 2.0),
                                         rng.normal(size=2))
            lhs = moyal_bracket(H, g)
            rhs = poisson_bracket(H, g).scaled(1j * hbar)
            worst = max(worst, (lhs - rhs).coeff_norm() / max(rhs.coeff_norm(), 1e-300))
        rec.add(worst, model=model.kind, kind="moyal_is_poisson")

        for t in (0.1, 0.5):
            Wt = evolve(f, model, t)
            ref = f.substitute_linear(classical_flow_matrix(model, -t))
            rec.add((Wt - ref).coeff_norm() / f.coeff_norm(), tolerance=1e-9,
                    model=model.kind, kind="classical_characteristics", t=t)
        Wn = oscillator_wigner(2, sp) if model.kind == "harmonic_oscillator" \
            else toy_resonant(2, "+", sp)
        rec.add((evolve(Wn, model, 0.4) - Wn).coeff_norm() / Wn.coeff_norm(), tolerance=1e-9,
                model=model.kind, kind="stationarity", t=0.4)
    return rec.report()


def check_complex_scaling(hbar: float = 1.0, gamma: float = 1.0, max_index: int = 6,
                          order: int = 6, seed: int = 0,
                          tolerance: float | None = None) -> VerificationReport:
    """Complex-scaling checks: the quadratic-generator map at lambda = pi/4,
    transport of the oscillator family onto the toy resonant families, and
    order-by-order agreement of the substitution realization with the
    star-series conjugation V_lam * f * V_{-lam}."""
    tol = tolerance or DEFAULT_TOLERANCES["complex_scaling_match"]
    rec = _Recorder("complex_scaling_match", tol)
    sp = VarSpace(1, hbar)

    f = QGFunction.from_poly(sp, Poly(2, {(0, 2): gamma / 2, (2, 0): -gamma / 2}))
    for lam_sign in (1.0, -1.0):
        got = conjugation_by_V(f, lam_sign * math.pi / 4)
        want = QGFunction.from_poly(sp, Poly(2, {(0, 2): 0.5j * gamma * lam_sign,
                                                 (2, 0): 0.5j * gamma * lam_sign}))
        rec.add((got - want).coeff_norm() / f.coeff_norm(),
                kind="quadratic_map", lam=f"{lam_sign:+.0f}pi/4")

    M = hyperbolic_frame_matrix()
    for n in range(max_index + 1):
        W = oscillator_wigner(n, sp)
        for sign, lam in (("+", -math.pi / 4), ("-", math.pi / 4)):
            F = conjugation_by_V(W, lam).substitute_linear(M)
            ref = toy_resonant(n, sign, sp)
            rec.add((F - ref).coeff_norm() / ref.coeff_norm(),
                    kind="family_transport", n=n, sign=sign)

    # perturbative validation of the substitution realization
    XP = QGFunction.from_poly(sp, Poly(2, {(1, 1): 1.0}))
    rng = np.random.default_rng(seed)
    probes = [("X", Poly(2, {(1, 0): 1.0})), ("P", Poly(2, {(0, 1): 1.0})),
              ("X^2", Poly(2, {(2, 0): 1.0})), ("XP", Poly(2, {(1, 1): 1.0}))]
    rand_terms = {(int(rng.integers(0, 3)), int(rng.integers(0, 3))):
                  complex(rng.normal(), rng.normal()) for _ in range(4)}
    probes.append(("random", Poly(2, rand_terms)))
    for label, poly in probes:
        f = QGFunction.from_poly(sp, poly)
        worst = 0.0
        lhs = f
        for j in range(order + 1):
            # ad_XP^j f / (j! hbar^j) by nested brackets, each step the size
            # of its result; as a binomial sum over XP^{*a} * f * XP^{*b} the
            # summands are ~hbar^-j larger and cancel to roundoff noise
            if j:
                lhs = moyal_bracket(XP, lhs).scaled(1.0 / (j * hbar))
            rhs_terms = Poly(2)
            for e, c in poly.terms.items():
                u, v = e
                rhs_terms.add_scaled(Poly(2, {e: 1.0}),
                                     c * (1j * (v - u)) ** j / math.factorial(j))
            rhs = QGFunction.from_poly(sp, rhs_terms)
            scale = max(rhs.coeff_norm(), f.coeff_norm())
            worst = max(worst, (lhs - rhs).coeff_norm() / scale)
        rec.add(worst, kind="generator_series", probe=label, order=order)
    return rec.report()


def check_koopman(hbar: float = 1.0, omega: float = 1.0, gamma: float = 1.0,
                  max_index: int = 4, tolerance: float | None = None) -> VerificationReport:
    """All stationary family members are zero modes of the Koopman operator."""
    rec = _Recorder("koopman_zero_mode", tolerance or DEFAULT_TOLERANCES["koopman_zero_mode"])
    sp1, sp2 = VarSpace(1, hbar), VarSpace(2, hbar)
    H = hamiltonian(ModelId.oscillator(omega), sp1)
    for n in range(max_index + 1):
        W = oscillator_wigner(n, sp1)
        rec.add(koopman_apply(H, W).coeff_norm() / W.coeff_norm(), family="W", n=n)
    H = hamiltonian(ModelId.toy(gamma), sp1)
    for sign in "+-":
        for n in range(max_index + 1):
            F = toy_resonant(n, sign, sp1)
            rec.add(koopman_apply(H, F).coeff_norm() / F.coeff_norm(),
                    family="F_toy", n=n, sign=sign)
    rec.add(koopman_apply(H, QGFunction.from_poly(sp1, Poly(2, {(1, 1): 1.0}))).coeff_norm(),
            family="F_toy", function="xp")
    H = hamiltonian(ModelId.dho(omega, gamma), sp2)
    for (n, m) in ((0, 0), (1, 1), (2, 1)):
        F = dho_f(n, m, "+", sp2)
        rec.add(koopman_apply(H, F).coeff_norm() / F.coeff_norm(), family="F_dho", n=n, m=m)
        G = dho_g(n, m, sp2)
        rec.add(koopman_apply(H, G).coeff_norm() / G.coeff_norm(), family="G_dho", n=n, m=m)
    return rec.report()


def check_conjugation(hbar: float = 1.0, omega: float = 1.0, gamma: float = 1.0,
                      max_index: int = 4, seed: int = 0,
                      tolerance: float | None = None) -> VerificationReport:
    """Conjugation symmetries: minus families are conjugates of plus families,
    G_nm = conj(G_mn), and conj(f*g) = conj(g)*conj(f) on random instances."""
    rec = _Recorder("conjugation_symmetry", tolerance or DEFAULT_TOLERANCES["conjugation_symmetry"])
    sp1, sp2 = VarSpace(1, hbar), VarSpace(2, hbar)
    for n in range(max_index + 1):
        Fm = toy_resonant(n, "-", sp1)
        rec.add((toy_resonant(n, "+", sp1).conjugate() - Fm).coeff_norm() / Fm.coeff_norm(),
                family="F_toy", n=n, identity="minus_is_conj")
    for (n, m) in ((0, 0), (1, 0), (2, 1), (1, 2)):
        Fm = dho_f(n, m, "-", sp2)
        rec.add((dho_f(n, m, "+", sp2).conjugate() - Fm).coeff_norm() / Fm.coeff_norm(),
                family="F_dho", n=n, m=m, identity="minus_is_conj")
        G1 = dho_g(n, m, sp2).conjugate()
        G2 = dho_g(m, n, sp2)
        rec.add((G1 - G2).coeff_norm() / G2.coeff_norm(),
                family="G_dho", n=n, m=m, identity="G_nm_conj_G_mn")
        e1 = eigenvalue(ModelId.dho(omega, gamma), sp2, (n, m), "none", "G")
        e2 = eigenvalue(ModelId.dho(omega, gamma), sp2, (m, n), "none", "G")
        rec.add(abs(e1.conjugate() - e2) / abs(e1), family="G_dho", n=n, m=m,
                identity="mu_nm_conj_mu_mn")

    rng = np.random.default_rng(seed)
    for trial in range(5):
        fs = []
        for _ in range(2):
            R = rng.normal(size=(2, 2))
            A = R.T @ R + 0.4 * np.eye(2) + 0.3j * (lambda S: S + S.T)(rng.normal(size=(2, 2)))
            b = rng.normal(size=2) + 1j * rng.normal(size=2)
            poly = Poly(2, {(int(rng.integers(0, 3)), int(rng.integers(0, 3))):
                            complex(rng.normal(), rng.normal()) for _ in range(3)})
            fs.append(QGFunction(sp1, [QGTerm(poly, QuadExponent(A, b))]))
        f, g = fs
        lhs = star(f, g).conjugate()
        rhs = star(g.conjugate(), f.conjugate())
        rec.add(relative_gap(lhs, rhs), identity="conj_antihomomorphism", trial=trial)
    return rec.report()


def check_pair_transform(hbar: float = 1.0, tolerance: float | None = None) -> VerificationReport:
    """The resonant-pair transform reproduces the families: a normalized
    Gaussian pair gives the oscillator ground state, (constant, delta) gives
    the plus toy ground state, (delta delta, constant) gives the 2-D plus
    ground state, and (x^n, (-i hbar)^n delta^(n)) gives n! (i hbar)^n F^+_n."""
    rec = _Recorder("pair_transform_match", tolerance or DEFAULT_TOLERANCES["pair_transform_match"])
    sp1, sp2 = VarSpace(1, hbar), VarSpace(2, hbar)

    psi0 = WaveFunction.oscillator_ground(hbar)
    T = wigner_pair_transform(psi0, psi0, sp1)
    ref = oscillator_wigner(0, sp1)
    rec.add((T - ref).coeff_norm() / ref.coeff_norm(), case="gaussian_pair_W0")

    T = wigner_pair_transform(WaveFunction.constant(1), WaveFunction.delta((0,)), sp1)
    ref = toy_resonant(0, "+", sp1)
    rec.add((T - ref).coeff_norm() / ref.coeff_norm(), case="const_delta_F0+")

    T = wigner_pair_transform(WaveFunction.delta((0, 0)), WaveFunction.constant(2), sp2)
    ref = dho_f(0, 0, "+", sp2)
    rec.add((T - ref).coeff_norm() / ref.coeff_norm(), case="deltadelta_const_F00+")

    for n in (1, 2, 3):
        T = wigner_pair_transform(WaveFunction.toy_plus(n), WaveFunction.toy_minus(n, hbar), sp1)
        ref = toy_resonant(n, "+", sp1).scaled(math.factorial(n) * (1j * hbar) ** n)
        rec.add((T - ref).coeff_norm() / ref.coeff_norm(), case="resonant_pair", n=n)
    return rec.report()


def check_classical_limit(hbars: Sequence[float] = (1.0, 0.1, 0.01),
                          tolerance: float | None = None) -> VerificationReport:
    """Ground states concentrate: |pair(F, phi) - phi(0)| decreases along a
    decreasing hbar ladder, for the oscillator and toy plus ground states."""
    rec = _Recorder("classical_limit", tolerance or DEFAULT_TOLERANCES["classical_limit"])
    for label, member in (("W0", lambda s: oscillator_wigner(0, s)),
                          ("F0+", lambda s: toy_resonant(0, "+", s))):
        residuals = []
        for hb in hbars:
            sp = VarSpace(1, hb)
            phi = gaussian_test(sp, 1.0)
            residuals.append(abs(member(sp).pair(phi) - phi.evaluate([0.0, 0.0])))
        increases = sum(1 for i in range(len(residuals) - 1) if residuals[i + 1] >= residuals[i])
        rec.add(float(increases), tolerance=0.5, family=label, kind="decreasing",
                residuals=[float(f"{r:.6e}") for r in residuals],
                hbars=[float(h) for h in hbars])
        # odd test: pairing vanishes at every hbar
        worst = 0.0
        for hb in hbars:
            sp = VarSpace(1, hb)
            odd = QGFunction(sp, [QGTerm(Poly(2, {(1, 0): 1.0}),
                                         QuadExponent(np.eye(2), np.zeros(2)))])
            worst = max(worst, abs(member(sp).pair(odd)))
        rec.add(worst, tolerance=1e-10, family=label, kind="odd_test_zero")
    return rec.report()


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

_CHECK_FUNCTIONS: Dict[str, Callable[..., VerificationReport]] = {
    "eigen_residual": check_eigen,
    "star_orthogonality": check_star_orthogonality,
    "marginal_delta": check_marginals,
    "normalization": check_normalization,
    "identity_resolution": check_identity_resolution,
    "evolution_match": check_evolution,
    "complex_scaling_match": check_complex_scaling,
    "koopman_zero_mode": check_koopman,
    "conjugation_symmetry": check_conjugation,
    "pair_transform_match": check_pair_transform,
    "classical_limit": check_classical_limit,
}
_CHECK_PARAMS = {name: inspect.signature(fn).parameters for name, fn in _CHECK_FUNCTIONS.items()}


def run_all(selectors: Iterable[str] | None = None, seed: int = 0,
            tolerance_overrides: Dict[str, float] | None = None,
            hbar: float = 1.0, omega: float = 1.0, gamma: float = 1.0) -> VerificationReport:
    """Run the selected registry checks (all by default) at desk scale.

    Deterministic for a fixed seed; check failures and exceptions become
    failed entries rather than aborting the run.
    """
    tolerance_overrides = tolerance_overrides or {}
    names = list(selectors) if selectors else list(CHECK_REGISTRY)
    for name in names:
        if name not in _CHECK_FUNCTIONS:
            raise KeyError(f"unknown check '{name}'")
    report = VerificationReport()
    for name in names:
        fn = _CHECK_FUNCTIONS[name]
        kwargs: Dict[str, object] = {}
        for key, val in (("hbar", hbar), ("omega", omega), ("gamma", gamma), ("seed", seed)):
            if key in _CHECK_PARAMS[name]:
                kwargs[key] = val
        if name in tolerance_overrides:
            kwargs["tolerance"] = tolerance_overrides[name]
        t0 = time.perf_counter()
        try:
            sub = fn(**kwargs)
        except Exception as exc:  # noqa: BLE001 - a failing check must not abort siblings
            sub = VerificationReport([CheckEntry(name, {"error": repr(exc)}, math.inf,
                                                 tolerance_overrides.get(name,
                                                                         DEFAULT_TOLERANCES[name]))])
        dt = time.perf_counter() - t0
        for e in sub.entries:
            e.wall_time = dt / max(len(sub.entries), 1)
        report.extend(sub)
    return report

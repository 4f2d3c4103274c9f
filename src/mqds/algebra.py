"""Gaussian-polynomial functions on a flat phase space.

The function class is

    f(z) = sum_k P_k(z) exp(-1/2 z^T A_k z + b_k^T z + c_k),

with z = (x_1..x_N, p_1..p_N) and complex symmetric A_k.  It is closed under
differentiation, affine substitution, pointwise product, Gaussian
integration and the Moyal star product, which is why every object the
engine manipulates (Wigner functions, resonant eigenfunctions, star
exponentials, Hamiltonians) lives here.

All values are immutable after construction; operations are pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .gausspoly import integrate_poly_exp, sym
from .poly import Exponent, Poly, _summed, check_packed_degree, packed_bits, packed_diff, unpack

PRUNE_REL_TOL = 1e-13      # relative to the largest coefficient, z in units of sqrt(hbar)
EXPO_EQ_TOL = 1e-12        # absolute, entrywise, for term merging


@dataclass(frozen=True)
class VarSpace:
    """Phase space R^{2N} with a fixed hbar; variables ordered x_1..x_N, p_1..p_N."""

    n_dof: int
    hbar: float

    def __post_init__(self):
        if self.n_dof < 1:
            raise ValueError("need at least one degree of freedom")
        if not (self.hbar > 0):
            raise ValueError("hbar must be positive")

    @property
    def dim(self) -> int:
        return 2 * self.n_dof

    def var_names(self) -> List[str]:
        if self.n_dof == 1:
            return ["x", "p"]
        return [f"x{k + 1}" for k in range(self.n_dof)] + [f"p{k + 1}" for k in range(self.n_dof)]


class QuadExponent:
    """exp(q(z)) with q(z) = -1/2 z^T A z + b^T z + c, A complex symmetric."""

    __slots__ = ("A", "b", "c")

    def __init__(self, A: np.ndarray, b: np.ndarray, c: complex = 0.0):
        A = np.asarray(A, dtype=complex)
        b = np.asarray(b, dtype=complex).reshape(-1)
        if A.shape != (len(b), len(b)):
            raise ValueError("A/b dimension mismatch")
        A = sym(A)
        A.flags.writeable = False
        b.flags.writeable = False
        self.A = A
        self.b = b
        self.c = complex(c)

    @classmethod
    def zero(cls, dim: int) -> "QuadExponent":
        return cls(np.zeros((dim, dim)), np.zeros(dim), 0.0)

    def is_zero(self) -> bool:
        return (np.abs(self.A).max(initial=0.0) <= EXPO_EQ_TOL
                and np.abs(self.b).max(initial=0.0) <= EXPO_EQ_TOL
                and abs(self.c) <= EXPO_EQ_TOL)

    def close_to(self, other: "QuadExponent") -> bool:
        return (np.abs(self.A - other.A).max(initial=0.0) <= EXPO_EQ_TOL
                and np.abs(self.b - other.b).max(initial=0.0) <= EXPO_EQ_TOL
                and abs(self.c - other.c) <= EXPO_EQ_TOL)

    def q_eval(self, z: np.ndarray) -> complex:
        return complex(-0.5 * z @ self.A @ z + self.b @ z + self.c)

    def conj(self) -> "QuadExponent":
        return QuadExponent(self.A.conjugate(), self.b.conjugate(), self.c.conjugate())


class QGTerm:
    """One polynomial-times-Gaussian term."""

    __slots__ = ("poly", "expo")

    def __init__(self, poly: Poly, expo: QuadExponent):
        self.poly = poly
        self.expo = expo

    def diff(self, index: int) -> "QGTerm":
        """d_index (P e^q) = (d_index P + (d_index q) P) e^q, on packed exponents."""
        dim = self.poly.dim
        bits = packed_bits(dim)
        check_packed_degree(self.poly.degree() + 1, bits, dim)
        keys, coeffs = packed_diff(self.poly.keys, self.poly.coeffs, index, bits,
                                   -self.expo.A[index], self.expo.b[index])
        return QGTerm(Poly.from_packed(dim, keys, coeffs), self.expo)

    def mul(self, other: "QGTerm") -> "QGTerm":
        expo = QuadExponent(self.expo.A + other.expo.A,
                            self.expo.b + other.expo.b,
                            self.expo.c + other.expo.c)
        return QGTerm(self.poly.mul(other.poly), expo)

    def substituted(self, M, shift=None) -> "QGTerm":
        """This term at z = M w + shift, for M of shape (dim of z, dim of w)."""
        M = np.asarray(M, dtype=complex)
        A, b, c = self.expo.A, self.expo.b, self.expo.c
        if shift is not None:
            shift = np.asarray(shift, dtype=complex)
            b, c = b - A @ shift, c + b @ shift - 0.5 * shift @ A @ shift
        return QGTerm(self.poly.affine_sub(M, shift), QuadExponent(M.T @ A @ M, M.T @ b, c))


class QGFunction:
    """Canonical finite sum of QGTerms over one VarSpace."""

    __slots__ = ("space", "terms")

    def __init__(self, space: VarSpace, terms: Iterable[QGTerm] = (), *, canonical: bool = False):
        self.space = space
        terms = list(terms)
        self.terms: Tuple[QGTerm, ...] = tuple(terms) if canonical else tuple(_canonicalize(space, terms))

    # -- constructors --------------------------------------------------------
    @classmethod
    def zero(cls, space: VarSpace) -> "QGFunction":
        return cls(space, (), canonical=True)

    @classmethod
    def constant(cls, space: VarSpace, c: complex) -> "QGFunction":
        return cls.from_poly(space, Poly.const(space.dim, c))

    @classmethod
    def from_poly(cls, space: VarSpace, poly: Poly) -> "QGFunction":
        if poly.dim != space.dim:
            raise ValueError("polynomial dimension does not match the space")
        return cls(space, [QGTerm(poly, QuadExponent.zero(space.dim))])

    @classmethod
    def from_exponent(cls, space: VarSpace, A, b=None, c: complex = 0.0,
                      coeff: complex = 1.0) -> "QGFunction":
        b = np.zeros(space.dim) if b is None else b
        term = QGTerm(Poly.const(space.dim, coeff), QuadExponent(A, b, c))
        return cls(space, [term])

    @classmethod
    def coordinate(cls, space: VarSpace, index: int) -> "QGFunction":
        return cls.from_poly(space, Poly.variable(space.dim, index))

    # -- structure -----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_polynomial(self) -> bool:
        return all(t.expo.is_zero() for t in self.terms)

    def polynomial_part(self) -> Poly:
        if not self.is_polynomial():
            raise ValueError("function has non-trivial exponents")
        return _summed(self.space.dim, [t.poly for t in self.terms])

    def _check_space(self, other: "QGFunction") -> None:
        if self.space != other.space:
            raise ValueError("operands live on different spaces")

    # -- linear algebra --------------------------------------------------------
    def __add__(self, other: "QGFunction") -> "QGFunction":
        self._check_space(other)
        return QGFunction(self.space, list(self.terms) + list(other.terms))

    def __sub__(self, other: "QGFunction") -> "QGFunction":
        return self + other.scaled(-1.0)

    def scaled(self, c: complex) -> "QGFunction":
        if c == 0:
            return QGFunction.zero(self.space)
        return QGFunction(self.space,
                          [QGTerm(t.poly.scaled(c), t.expo) for t in self.terms],
                          canonical=True)

    def mul(self, other: "QGFunction") -> "QGFunction":
        """Pointwise product; closed in the class."""
        self._check_space(other)
        return QGFunction(self.space,
                          [t1.mul(t2) for t1 in self.terms for t2 in other.terms])

    # -- calculus -------------------------------------------------------------
    def evaluate(self, z) -> complex:
        z = np.asarray(z, dtype=complex).reshape(-1)
        if len(z) != self.space.dim:
            raise ValueError(f"point has dimension {len(z)}, expected {self.space.dim}")
        total = 0j
        for t in self.terms:
            total += t.poly.eval(z) * np.exp(t.expo.q_eval(z))
        return complex(total)

    def evaluate_grid(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        """Evaluate on the tensor grid of one 1-D node array per variable.

        Returns an array of shape tuple(len(a) for a in axes), computed by
        broadcasting (no point list in memory); a variable held fixed is a
        length-1 axis.
        """
        d = self.space.dim
        if len(axes) != d:
            raise ValueError(f"got {len(axes)} axes, expected {d}")
        shape = tuple(len(a) for a in axes)
        xs = [np.reshape(a, [len(a) if i == k else 1 for i in range(d)]) for k, a in enumerate(axes)]
        vals = np.zeros(shape, dtype=complex)
        for t in self.terms:
            # monomials and exponent grown from the 1-D axes by broadcasting,
            # so at most three full-size arrays (vals, pv, q) are alive at once
            pv = np.zeros(shape, dtype=complex)
            exps = unpack(t.poly.keys, d, packed_bits(d))
            for e, coef in zip(exps.tolist(), t.poly.coeffs.tolist()):
                mono = coef
                for x, k in zip(xs, e):
                    if k:
                        mono = mono * x.astype(complex) ** k
                pv += mono
            A, b = t.expo.A, t.expo.b
            q = t.expo.c
            for i in range(d):
                q = _add_into(q, -0.5 * A[i, i] * xs[i] ** 2 + b[i] * xs[i])
                for j in range(i + 1, d):
                    if A[i, j] != 0:
                        q = _add_into(q, (-A[i, j]) * xs[i] * xs[j])
            np.exp(q, out=q)
            q *= pv
            vals += q
        return vals

    def differentiate(self, var_index: int) -> "QGFunction":
        if not (0 <= var_index < self.space.dim):
            raise ValueError("variable index out of range")
        return QGFunction(self.space, [t.diff(var_index) for t in self.terms])

    def substitute_linear(self, M, shift=None) -> "QGFunction":
        """Return f(M z + shift); M must be invertible."""
        M = np.asarray(M, dtype=complex)
        if M.shape != (self.space.dim, self.space.dim):
            raise ValueError("substitution matrix has wrong shape")
        if abs(np.linalg.det(M)) < 1e-12:
            raise ValueError("singular substitution matrix")
        return QGFunction(self.space, [t.substituted(M, shift) for t in self.terms])

    def conjugate(self) -> "QGFunction":
        return QGFunction(self.space,
                          [QGTerm(t.poly.conj(), t.expo.conj()) for t in self.terms],
                          canonical=True)

    def gaussian_integral(self) -> complex:
        """Integral over R^{2N}, Fresnel-regularized; raises NonIntegrable."""
        total = 0j
        for t in self.terms:
            total += integrate_poly_exp(t.expo.A, t.expo.b, t.expo.c, t.poly)
        return total

    def pair(self, test: "QGFunction") -> complex:
        """Weak pairing integral of f * test (pointwise product)."""
        return self.mul(test).gaussian_integral()

    def coeff_norm(self) -> float:
        """Sum over terms of e^{Re c} * sum |poly coefficients|, with z measured
        in its natural unit sqrt(hbar) (the coefficient of z^e weighs
        hbar^(|e|/2)), so that a ratio of norms does not depend on the unit
        of z; 0 iff f == 0."""
        unit = math.sqrt(self.space.hbar)
        return float(sum(math.exp(min(t.expo.c.real, 700.0)) * t.poly.coeff_abs_sum(unit)
                         for t in self.terms))

    # -- serialization ----------------------------------------------------------
    def to_json_dict(self) -> dict:
        def cplx(v: complex):
            return [float(v.real), float(v.imag)]

        terms = []
        for t in self.terms:
            poly = {",".join(str(k) for k in e): cplx(c) for e, c in t.poly.canonical_items()}
            terms.append({
                "poly": poly,
                "A": [[cplx(v) for v in row] for row in t.expo.A],
                "b": [cplx(v) for v in t.expo.b],
                "c": cplx(t.expo.c),
            })
        terms.sort(key=lambda d: json.dumps(d, sort_keys=True))
        return {"dof": self.space.n_dof, "hbar": self.space.hbar, "terms": terms}

    @classmethod
    def from_json_dict(cls, data: dict) -> "QGFunction":
        space = VarSpace(int(data["dof"]), float(data["hbar"]))
        terms = []
        for td in data["terms"]:
            poly_terms: Dict[Exponent, complex] = {}
            for key, (re, im) in td["poly"].items():
                e = tuple(int(s) for s in key.split(","))
                poly_terms[e] = complex(re, im)
            A = np.array([[complex(re, im) for re, im in row] for row in td["A"]])
            b = np.array([complex(re, im) for re, im in td["b"]])
            c = complex(*td["c"])
            terms.append(QGTerm(Poly(space.dim, poly_terms), QuadExponent(A, b, c)))
        return cls(space, terms)

    def __repr__(self) -> str:
        return f"QGFunction(N={self.space.n_dof}, hbar={self.space.hbar}, {len(self.terms)} terms)"


def _add_into(acc, term: np.ndarray):
    """acc + term, in place in whichever scratch operand has the sum's shape."""
    shape = np.broadcast_shapes(np.shape(acc), term.shape)
    if np.shape(acc) == shape:
        acc += term
        return acc
    if term.shape == shape:
        term += acc
        return term
    return acc + term


def _canonicalize(space: VarSpace, terms: List[QGTerm]) -> List[QGTerm]:
    """Merge equal exponents, fold constant exponents, prune tiny coefficients."""
    groups: List[Tuple[QuadExponent, List[Poly]]] = []
    for t in terms:
        if t.poly.is_zero():
            continue
        poly, expo = t.poly, t.expo
        # fold e^c into the polynomial so the (A, b) pair keys the term uniquely
        if abs(expo.c) > 0:
            poly, expo = poly.scaled(np.exp(expo.c)), QuadExponent(expo.A, expo.b, 0.0)
        for seen, polys in groups:
            if seen.close_to(expo):
                polys.append(poly)
                break
        else:
            groups.append((expo, [poly]))
    merged = [QGTerm(_summed(space.dim, polys), expo) for expo, polys in groups]

    # weigh the coefficient of z^e by sqrt(hbar)^|e|, its size in the natural
    # unit of z, so that the cut does not depend on the unit (at hbar = 100 the
    # top Laguerre terms of W_8 carry (2/hbar)^8 and would all be dropped)
    unit = math.sqrt(space.hbar)
    top = max((t.poly.max_abs_coeff(unit) for t in merged), default=0.0)
    tol = PRUNE_REL_TOL * top
    out = []
    for t in merged:
        p = t.poly.pruned(tol, unit)
        if not p.is_zero():
            out.append(QGTerm(p, t.expo))
    if len(out) > 1:
        out.sort(key=_term_sort_key)
    return out


def _term_sort_key(t: QGTerm):
    A = np.round(t.expo.A, 12)
    b = np.round(t.expo.b, 12)
    return (A.real.tobytes(), A.imag.tobytes(), b.real.tobytes(), b.imag.tobytes(),
            round(t.expo.c.real, 12), round(t.expo.c.imag, 12))


# -- module-level operations on QGFunctions -----------------------------------

def poisson_bracket(f: QGFunction, g: QGFunction) -> QGFunction:
    """{f, g} = sum_k df/dx_k dg/dp_k - dg/dx_k df/dp_k."""
    f._check_space(g)
    n = f.space.n_dof
    out = QGFunction.zero(f.space)
    for k in range(n):
        out = out + f.differentiate(k).mul(g.differentiate(n + k))
        out = out - g.differentiate(k).mul(f.differentiate(n + k))
    return out


def gaussian_test(space: VarSpace, width: float, center=None) -> QGFunction:
    """exp(-|z - center|^2 / (2 width^2)): a strictly integrable probe."""
    d = space.dim
    A = np.eye(d) / width**2
    center = np.zeros(d) if center is None else np.asarray(center, dtype=float)
    b = center / width**2
    c = -0.5 * center @ center / width**2
    return QGFunction.from_exponent(space, A, b, c)

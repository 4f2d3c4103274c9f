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

import cmath
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

    def conj(self) -> "QuadExponent":
        return QuadExponent(self.A.conjugate(), self.b.conjugate(), self.c.conjugate())


class QGTerm:
    """One polynomial-times-Gaussian term."""

    __slots__ = ("poly", "expo", "_plan")

    def __init__(self, poly: Poly, expo: QuadExponent):
        self.poly = poly
        self.expo = expo
        self._plan = None

    def plan(self) -> "_EvalPlan":
        """This term's evaluation schedule, built on first use."""
        if self._plan is None:
            self._plan = _EvalPlan(self)
        return self._plan

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
        """f(z): each term by its `_EvalPlan`, the terms added in order; the
        operations of `evaluate_grid` at one point, so that the two agree
        at a real point up to the signs of zeros."""
        z = np.asarray(z, dtype=complex).reshape(-1)
        if len(z) != self.space.dim:
            raise ValueError(f"point has dimension {len(z)}, expected {self.space.dim}")
        point = z.tolist() if z.imag.any() else z.real.tolist()
        total = 0j
        for t in self.terms:
            total += t.plan().at(point)
        return complex(total)

    def evaluate_grid(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        """Evaluate on the tensor grid of one 1-D node array per variable.

        Returns an array of shape tuple(len(a) for a in axes); a variable
        held fixed is a length-1 axis.  Every operation is elementwise, so a
        point's value does not depend on the grid around it.  Horner level k
        of a term (see `_EvalPlan`) holds one row per distinct power of
        z_0..z_{k-1} on the grid of z_k..z_{d-1}, which outgrows the grid
        when the leading axes are short; the grid is then evaluated in pieces
        along its last axis longer than 1, so that no level of a piece holds
        more than max(half the grid, _LEVEL_POINTS) values.
        """
        d = self.space.dim
        if len(axes) != d:
            raise ValueError(f"got {len(axes)} axes, expected {d}")
        axes = [np.asarray(a).reshape(-1) for a in axes]
        axes = [a if np.iscomplexobj(a) else a.astype(float, copy=False) for a in axes]
        shape = tuple(len(a) for a in axes)
        plans = [t.plan() for t in self.terms]
        need = max((p.level_points(shape) for p in plans), default=0)
        budget = max(math.prod(shape) // 2, _LEVEL_POINTS)
        long = [k for k, n in enumerate(shape) if n > 1]
        if need <= budget or not long:
            return _grid_sum(plans, axes)
        j = long[-1]
        step = max(1, shape[j] * budget // need)
        vals = np.empty(shape, dtype=complex)
        for lo in range(0, shape[j], step):
            piece = axes[:j] + [axes[j][lo:lo + step]] + axes[j + 1:]
            vals[(slice(None),) * j + (slice(lo, lo + step),)] = _grid_sum(plans, piece)
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


# a Horner level may hold this many values, or half the grid if more, before
# `evaluate_grid` splits the grid
_LEVEL_POINTS = 1 << 16


class _EvalPlan:
    """How one term P(z) e^{q(z)} is evaluated, at a point or on a tensor grid.

    Polynomial: Horner along one variable at a time, the last first.  At
    level k the rows are the polynomials in z_k..z_{d-1} that multiply each
    distinct power of z_0..z_{k-1}; a row runs Horner over its own powers of
    z_k, highest first, multiplying by z_k^gap (a power by repeated
    multiplication) before adding each next coefficient, and by the lowest
    power last.  A grid runs all rows of a level at once, rows with fewer
    powers padded at the front with zero coefficients and gaps of 0, which
    changes only the signs of zeros.

    Exponential: q is summed at every point, the pair terms z_i (-A_ij z_j)
    first, then the axis terms (-A_ii z_i / 2 + b_i) z_i, then c, and its
    exponential multiplies the polynomial; a term with neither pair nor
    axis terms multiplies it by e^c.
    """

    __slots__ = ("coeffs", "levels", "c", "axis", "pairs")

    def __init__(self, term: QGTerm):
        poly, expo = term.poly, term.expo
        d = poly.dim
        A, b = expo.A.tolist(), expo.b.tolist()
        self.pairs = [(i, j, -A[i][j]) for i in range(d) for j in range(i + 1, d) if A[i][j] != 0]
        self.axis = [(k, -0.5 * A[k][k], b[k]) for k in range(d) if A[k][k] != 0 or b[k] != 0]
        self.c = complex(expo.c)

        exps = unpack(poly.keys, d, packed_bits(d))
        order = np.lexsort(exps.T[::-1])
        # the coefficients in row order, then the zero that pads short rows
        self.coeffs = np.append(poly.coeffs[order], 0j)
        rows = list(map(tuple, exps[order].tolist()))
        self.levels = []
        for k in range(d - 1, -1, -1):
            # rows sorted by exponent tuple: a prefix's rows are contiguous,
            # its powers of z_k ascending
            bounds, lo = [], 0
            for hi in range(1, len(rows) + 1):
                if hi == len(rows) or rows[hi][:k] != rows[lo][:k]:
                    bounds.append((lo, hi))
                    lo = hi
            powers = [r[k] for r in rows]
            # grid tables: each prefix's rows highest power first, the last
            # in the last column; the gap before each column, then the
            # lowest power; row len(rows) is the zero row
            width = max(hi - lo for lo, hi in bounds)
            src, gaps = [], []
            for lo, hi in bounds:
                pad = width - (hi - lo)
                src.append([len(rows)] * pad + list(range(hi - 1, lo - 1, -1)))
                gaps.append([0] * pad + [powers[r] - powers[r - 1] for r in range(hi - 1, lo, -1)]
                            + [powers[lo]])
            gaps = np.array(gaps)
            self.levels.append((k, int(gaps.max()), np.array(src), gaps, bounds, powers))
            rows = [rows[lo][:k] for lo, _ in bounds]

    def level_points(self, shape: Sequence[int]) -> int:
        """The most values a Horner level holds on a grid of this shape."""
        return max(len(src) * math.prod(shape[k:]) for k, _, src, _, _, _ in self.levels)

    def grid(self, axes: List[np.ndarray]) -> np.ndarray:
        shape = tuple(len(a) for a in axes)
        R, T = self.coeffs[:, None], 1
        for k, top, src, gaps, _, _ in self.levels:
            a = axes[k]
            n = len(a)
            pw = _powers(a, top)
            # every level but the last keeps a zero row behind its rows
            acc = np.empty((len(src) + (k > 0), n, T), dtype=complex)
            acc[len(src):] = 0
            body = acc[:len(src)]
            body[...] = R[src[:, 0], None]
            for j in range(1, src.shape[1]):
                _mul(body, pw[gaps[:, j - 1], :, None])
                body += R[src[:, j], None]
            if gaps[:, -1].any():
                _mul(body, pw[gaps[:, -1], :, None])
            R, T = acc.reshape(len(acc), n * T), n * T
        vals = R.reshape(shape)
        if self.pairs or self.axis:
            _mul(vals, self._exp_q_grid(axes, shape), scratch=True)
        elif self.c:
            _mul(vals, np.exp(self.c))
        return vals

    def _exp_q_grid(self, axes: List[np.ndarray], shape) -> np.ndarray:
        d = len(axes)
        xs = [a.reshape([-1 if i == k else 1 for i in range(d)]) for k, a in enumerate(axes)]
        # q's terms as factor pairs: each product is formed as it is added,
        # the first straight into q, so that a pair term spanning the whole
        # grid (N = 1) needs no array of its own
        parts = [(xs[i], w * xs[j]) for i, j, w in self.pairs]
        parts += [((h * xs[k] + b) * xs[k], 1.0) for k, h, b in self.axis]
        q = np.empty(shape, dtype=complex)
        np.multiply(*parts[0], out=q)
        for u, v in parts[1:]:
            q += u * v
        if self.c:
            q += self.c
        return np.exp(q, out=q)

    def at(self, z: List) -> complex:
        R = self.coeffs.tolist()
        for k, top, _, _, bounds, powers in self.levels:
            x = z[k]
            pw = [1.0, x]
            for _ in range(top - 1):
                pw.append(pw[-1] * x)
            out = []
            for lo, hi in bounds:
                acc, last = R[hi - 1], powers[hi - 1]
                for r in range(hi - 2, lo - 1, -1):
                    acc = acc * pw[last - powers[r]] + R[r]
                    last = powers[r]
                out.append(acc * pw[last] if last else acc)
            R = out
        if not (self.pairs or self.axis):
            return R[0] * cmath.exp(self.c) if self.c else R[0]
        parts = [z[i] * (w * z[j]) for i, j, w in self.pairs]
        parts += [(h * z[k] + b) * z[k] for k, h, b in self.axis]
        q = parts[0]
        for u in parts[1:]:
            q += u
        if self.c:
            q += self.c
        return R[0] * cmath.exp(q)


def _grid_sum(plans: List[_EvalPlan], axes: List[np.ndarray]) -> np.ndarray:
    """The terms' grids added in order."""
    vals = None
    for plan in plans:
        v = plan.grid(axes)
        if vals is None:
            vals = v
        else:
            vals += v
    return np.zeros(tuple(len(a) for a in axes), dtype=complex) if vals is None else vals


def _powers(a: np.ndarray, top: int) -> np.ndarray:
    """Rows 1, a, a*a, ... up to a**top, each power by one more multiplication."""
    out = np.ones((top + 1, len(a)), dtype=a.dtype)
    for g in range(1, top + 1):
        out[g] = out[g - 1]
        _mul(out[g], a)
    return out


def _mul(acc: np.ndarray, p: np.ndarray, scratch: bool = False) -> None:
    """acc *= p, p broadcast to acc, each product rounded as Python rounds it.

    numpy's complex multiply does not: its one-element in-place loop rounds
    differently from its vector loops, so a value would depend on the grid
    around it.  Here a complex product is its four real products
    and two sums; a real p scales the real and imaginary parts alone, which
    is the complex product with p + 0j up to the signs of zeros (acc is
    C-contiguous there).  With `scratch`, p has acc's shape and its
    imaginary part is used as workspace.
    """
    if not np.iscomplexobj(acc):
        acc *= p
    elif not np.iscomplexobj(p):
        parts = acc.view(float).reshape(*acc.shape, 2)
        parts *= p[..., None]
    else:
        re, im = acc.real, acc.imag
        t = re * p.imag
        re *= p.real
        if scratch:
            u = p.imag
            u *= im
        else:
            u = im * p.imag
        re -= u
        im *= p.real
        im += t


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

"""Sparse complex polynomials in several variables.

Exponent tuples index complex coefficients; the empty map is the zero
polynomial.  Serialization order is graded lexicographic.

The hot kernels run on packed exponents: a monomial's exponent tuple packs
into one int64 key, variable i in bits [bits*i, bits*(i+1)), so that adding
keys multiplies monomials as long as no exponent reaches 2**bits.  The
moment recursion keeps its tables in this form, and the bidifferential
series and derivatives run on it (`packed_diff`).
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Dict, Iterator, Mapping, Sequence, Tuple

import numpy as np

Exponent = Tuple[int, ...]


class Poly:
    """Polynomial over ``dim`` complex variables, stored as {exponent: coeff}."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[Exponent, complex] | None = None):
        self.dim = int(dim)
        self.terms: Dict[Exponent, complex] = {}
        if terms:
            for e, c in terms.items():
                if len(e) != self.dim:
                    raise ValueError(f"exponent {tuple(e)} has {len(e)} entries, not dim = {self.dim}")
                c = complex(c)
                if c != 0:
                    e = tuple(int(k) for k in e)
                    acc = self.terms.get(e, 0j) + c
                    if acc == 0:
                        self.terms.pop(e, None)
                    else:
                        self.terms[e] = acc

    # -- constructors ------------------------------------------------------
    @classmethod
    def const(cls, dim: int, c: complex) -> "Poly":
        return cls(dim, {(0,) * dim: c} if c != 0 else None)

    @classmethod
    def monomial(cls, dim: int, expo: Exponent, c: complex = 1.0) -> "Poly":
        return cls(dim, {tuple(expo): c})

    @classmethod
    def variable(cls, dim: int, index: int, c: complex = 1.0) -> "Poly":
        e = [0] * dim
        e[index] = 1
        return cls(dim, {tuple(e): c})

    @classmethod
    def linear(cls, coeffs, const: complex = 0.0) -> "Poly":
        """c0 + sum_i coeffs[i] * z_i."""
        dim = len(coeffs)
        terms: Dict[Exponent, complex] = {}
        for i, a in enumerate(coeffs):
            if a != 0:
                e = [0] * dim
                e[i] = 1
                terms[tuple(e)] = complex(a)
        if const != 0:
            terms[(0,) * dim] = complex(const)
        return cls(dim, terms)

    # -- predicates / metrics ----------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def coeff_abs_sum(self, unit: float) -> float:
        """Sum of |c| * unit^|e|: the coefficient mass once z is measured in `unit`."""
        return float(sum(abs(c) * unit ** sum(e) for e, c in self.terms.items()))

    def max_abs_coeff(self, unit: float = 1.0) -> float:
        """Largest |c| * unit^|e|: the coefficient size once z is measured in `unit`."""
        if unit == 1.0:
            # every weight is 1 (hbar = 1): skipping them gives the same result
            # with less work per term, on the hot canonicalization path
            return max((abs(c) for c in self.terms.values()), default=0.0)
        return max((abs(c) * unit ** sum(e) for e, c in self.terms.items()), default=0.0)

    def copy(self) -> "Poly":
        p = Poly(self.dim)
        p.terms = dict(self.terms)
        return p

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        out = self.copy()
        t = out.terms
        for e, c in other.terms.items():
            acc = t.get(e, 0j) + c
            if acc == 0:
                t.pop(e, None)
            else:
                t[e] = acc
        return out

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scaled(-1.0)

    def scaled(self, c: complex) -> "Poly":
        if c == 0:
            return Poly(self.dim)
        p = Poly(self.dim)
        p.terms = {e: v * c for e, v in self.terms.items()}
        return p

    def rescaled(self, unit: float) -> "Poly":
        """P(unit * w) as a polynomial in w: the coefficient of z^e times unit^|e|."""
        powers = [unit ** k for k in range(self.degree() + 1)]
        p = Poly(self.dim)
        p.terms = {e: c * powers[sum(e)] for e, c in self.terms.items()}
        return p

    def mul(self, other: "Poly") -> "Poly":
        """Product by the double loop; terms in order of first appearance."""
        out: Dict[Exponent, complex] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(operator.add, e1, e2))
                out[e] = out.get(e, 0j) + c1 * c2
        r = Poly(self.dim)
        r.terms = {e: c for e, c in out.items() if c != 0}
        return r

    def add_scaled(self, other: "Poly", c: complex) -> None:
        """In-place self += c*other (used in hot recursions)."""
        if c == 0:
            return
        t = self.terms
        for e, v in other.terms.items():
            acc = t.get(e, 0j) + c * v
            if acc == 0:
                t.pop(e, None)
            else:
                t[e] = acc

    def conj(self) -> "Poly":
        p = Poly(self.dim)
        p.terms = {e: c.conjugate() for e, c in self.terms.items()}
        return p

    def eval(self, z) -> complex:
        z = np.asarray(z, dtype=complex)
        total = 0j
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k:
                    v = v * z[i] ** k
            total += v
        return complex(total)

    def affine_sub(self, M, shift=None) -> "Poly":
        """Substitute z_i -> sum_j M[i, j] w_j + shift_i; result over w."""
        M = np.asarray(M, dtype=complex)
        dim_out = M.shape[1]
        shift = np.zeros(M.shape[0], dtype=complex) if shift is None else np.asarray(shift, dtype=complex)
        pow_cache: Dict[Tuple[int, int], Poly] = {}

        def lin_pow(i: int, k: int) -> Poly:
            key = (i, k)
            got = pow_cache.get(key)
            if got is not None:
                return got
            if k == 0:
                r = Poly.const(dim_out, 1.0)
            elif k == 1:
                r = Poly.linear(M[i, :], shift[i])
            else:
                r = lin_pow(i, k - 1).mul(lin_pow(i, 1))
            pow_cache[key] = r
            return r

        out = Poly(dim_out)
        for e, c in self.terms.items():
            fac = Poly.const(dim_out, c)
            for i, k in enumerate(e):
                if k:
                    fac = fac.mul(lin_pow(i, k))
            out = out + fac
        return out

    def embed(self, dim_out: int, var_map) -> "Poly":
        """Relabel variable i -> var_map[i] in a larger variable set."""
        out: Dict[Exponent, complex] = {}
        for e, c in self.terms.items():
            e2 = [0] * dim_out
            for i, k in enumerate(e):
                if k:
                    e2[var_map[i]] += k
            out[tuple(e2)] = out.get(tuple(e2), 0j) + c
        return Poly(dim_out, out)

    def pruned(self, abs_tol: float, unit: float) -> "Poly":
        """Keep the terms with |c| * unit^|e| > abs_tol."""
        p = Poly(self.dim)
        if unit == 1.0:
            # as in max_abs_coeff
            p.terms = {e: c for e, c in self.terms.items() if abs(c) > abs_tol}
        else:
            p.terms = {e: c for e, c in self.terms.items() if abs(c) * unit ** sum(e) > abs_tol}
        return p

    @classmethod
    def from_packed(cls, dim: int, bits: int, keys: np.ndarray, coeffs: np.ndarray) -> "Poly":
        p = cls(dim)
        p.terms = dict(zip(map(tuple, unpack(keys, dim, bits).tolist()), coeffs.tolist()))
        return p

    def to_packed(self, bits: int) -> Tuple[np.ndarray, np.ndarray]:
        """(int64 keys, complex coeffs) in term order, the inverse of from_packed;
        ValueError when an exponent is negative or needs more than `bits` bits."""
        try:
            exps = np.array(list(self.terms), dtype=np.int64).reshape(len(self.terms), self.dim)
            if exps.size and (exps.min() < 0 or int(exps.max()) >> bits):
                raise OverflowError
        except OverflowError:
            raise ValueError(f"an exponent does not fit a {bits}-bit field") from None
        return pack(exps, bits), np.array(list(self.terms.values()), dtype=complex)

    def canonical_items(self):
        """Items sorted in graded-lex order (total degree, then exponents)."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly(0)"
        bits = [f"{c:.6g}*z^{e}" for e, c in itertools.islice(self.canonical_items(), 8)]
        more = "" if len(self.terms) <= 8 else f" +{len(self.terms) - 8} terms"
        return "Poly(" + " + ".join(bits) + more + ")"


def packed_bits(dim: int) -> int:
    """Widest per-variable field for `dim` variables in a non-negative int64."""
    return 63 // dim if dim else 0


def check_packed_degree(degree: int, bits: int, dim: int) -> None:
    """ValueError when a packed result of total degree `degree` would overflow."""
    if degree >= 1 << bits:
        raise ValueError(f"degree {degree} exceeds the {(1 << bits) - 1} that packed "
                         f"exponents hold over {dim} variables")


def pack(exps: np.ndarray, bits: int) -> np.ndarray:
    """(n, dim) exponent rows -> n int64 keys."""
    shifts = np.arange(exps.shape[1], dtype=np.int64) * bits
    return (exps << shifts).sum(axis=1)


def unpack(keys: np.ndarray, dim: int, bits: int) -> np.ndarray:
    """n int64 keys -> (n, dim) exponent rows."""
    shifts = np.arange(dim, dtype=np.int64) * bits
    return (keys[:, None] >> shifts) & ((1 << bits) - 1)


def packed_diff(keys: np.ndarray, coeffs: np.ndarray, index: int, bits: int,
                row: np.ndarray, const: complex) -> Tuple[np.ndarray, np.ndarray]:
    """(d_index + g) P for a packed P, with g = row . z + const.

    Each nonzero row[k] multiplies P by z_k, which adds one to exponent k, so
    the caller keeps the exponents below 2**bits - 1 when g is not constant.
    """
    shift = bits * index
    e = (keys >> shift) & ((1 << bits) - 1)
    has = e != 0
    d_keys, d_coeffs = keys[has] - (1 << shift), coeffs[has] * e[has]
    nz = row.nonzero()[0]
    if not len(nz) and const == 0:
        return d_keys, d_coeffs
    parts_k = [d_keys, (keys + np.left_shift(1, bits * nz)[:, None]).ravel()]
    parts_c = [d_coeffs, (row[nz, None] * coeffs).ravel()]
    if const != 0:
        parts_k.append(keys)
        parts_c.append(const * coeffs)
    return merge(np.concatenate(parts_k), np.concatenate(parts_c))


def merge_index(keys: np.ndarray, kind: str = "quicksort") -> Tuple[np.ndarray, np.ndarray]:
    """The distinct keys, sorted, and the place of each input key among them."""
    order = keys.argsort(kind=kind)
    ordered = keys[order]
    starts = np.empty(len(keys), dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    inv = np.empty(len(keys), dtype=np.intp)
    inv[order] = starts.cumsum() - 1
    return ordered[starts], inv


def merge(keys: np.ndarray, coeffs: np.ndarray,
          kind: str = "quicksort") -> Tuple[np.ndarray, np.ndarray]:
    """Sum the coefficients of equal keys; sorted by key, exact zeros dropped.

    bincount adds each key's coefficients in input order, whatever order the
    sort leaves equal keys in, so the sort kind changes only the speed: the
    stable timsort merges concatenated sorted runs faster, the default
    quicksort shuffled keys.  The sort and bincount stand in for np.unique,
    whose per-call overhead dominates on short arrays."""
    uniq, inv = merge_index(keys, kind)
    out = np.empty(len(uniq), dtype=complex)
    out.real = np.bincount(inv, coeffs.real, len(uniq))
    out.imag = np.bincount(inv, coeffs.imag, len(uniq))
    keep = out != 0
    return uniq[keep], out[keep]


def multi_indices(dim: int, max_total: int,
                  caps: Sequence[int] | None = None) -> Iterator[Exponent]:
    """All exponent tuples over `dim` variables with total degree <= max_total,
    and entry i <= caps[i] when caps are given, in lexicographic order."""
    if dim == 0:
        yield ()
        return
    top = max_total if caps is None else min(max_total, caps[0])
    for head in range(top + 1):
        for tail in multi_indices(dim - 1, max_total - head, None if caps is None else caps[1:]):
            yield (head,) + tail


def multi_factorial(e: Exponent) -> float:
    out = 1.0
    for k in e:
        out *= math.factorial(k)
    return out

"""Sparse complex polynomials in several variables, on packed exponents.

A monomial's exponent tuple packs into one int64 key, variable i in bits
[bits*i, bits*(i+1)) with bits = packed_bits(dim), so that adding keys
multiplies monomials as long as no exponent reaches 2**bits.  A `Poly`
holds its keys distinct and sorted, with their coefficients and no exact
zero, as `merge` returns them: products, the bidifferential series and
derivatives (`packed_diff`), the moment tables and the Gaussian
composition read and return that form.  Serialization order is graded
lexicographic.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Dict, Iterator, Mapping, Sequence, Tuple

import numpy as np

Exponent = Tuple[int, ...]


class Poly:
    """Polynomial over ``dim`` complex variables: distinct sorted int64 keys,
    packed_bits(dim) bits per variable, and their nonzero coefficients.
    Immutable, so results may share arrays with their operands."""

    __slots__ = ("dim", "keys", "coeffs", "_degree")

    def __init__(self, dim: int, terms: Mapping[Exponent, complex] | None = None):
        """sum c z^e over the items of `terms`; ValueError unless each exponent
        has `dim` entries, each an integer from 0 to 2**packed_bits(dim) - 1."""
        self.dim = dim = int(dim)
        self._degree = None
        if not terms:
            self.keys, self.coeffs = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex)
            return
        for e in terms:
            if len(e) != dim:
                raise ValueError(f"exponent {tuple(e)} has {len(e)} entries, not dim = {dim}")
        bits = packed_bits(dim)
        try:
            exps = np.array([[operator.index(k) for k in e] for e in terms], dtype=np.int64)
        except (TypeError, OverflowError):
            exps = None
        if exps is None or exps.min() < 0 or exps.max() >> bits:
            raise ValueError(f"an exponent is not an integer from 0 to {(1 << bits) - 1}, "
                             f"the packed field of each of {dim} variables")
        self.keys, self.coeffs = merge(pack(exps, bits), np.array(list(terms.values()), dtype=complex))

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_packed(cls, dim: int, keys: np.ndarray, coeffs: np.ndarray) -> "Poly":
        """The polynomial of packed_bits(dim)-bit keys and coefficients as
        `merge` returns them, holding both arrays (no copy)."""
        p = cls.__new__(cls)
        p.dim, p.keys, p.coeffs, p._degree = dim, keys, coeffs, None
        return p

    @classmethod
    def const(cls, dim: int, c: complex) -> "Poly":
        return _nonzero(dim, np.zeros(1, dtype=np.int64), np.array([c], dtype=complex))

    @classmethod
    def monomial(cls, dim: int, expo: Exponent, c: complex = 1.0) -> "Poly":
        return cls(dim, {tuple(expo): c})

    @classmethod
    def variable(cls, dim: int, index: int, c: complex = 1.0) -> "Poly":
        return _nonzero(dim, np.array([1 << packed_bits(dim) * index], dtype=np.int64),
                        np.array([c], dtype=complex))

    @classmethod
    def linear(cls, coeffs, const: complex = 0.0) -> "Poly":
        """c0 + sum_i coeffs[i] * z_i."""
        dim = len(coeffs)
        keys = np.array([0, *(1 << packed_bits(dim) * i for i in range(dim))], dtype=np.int64)
        return _nonzero(dim, keys, np.array([const, *coeffs], dtype=complex))

    # -- predicates / metrics ----------------------------------------------
    def _exponents(self) -> np.ndarray:
        """The exponent rows, in key order."""
        return unpack(self.keys, self.dim, packed_bits(self.dim))

    def _sizes(self, unit: float) -> np.ndarray:
        """|c| * unit^|e| per term: each coefficient's size once z is measured in `unit`."""
        sizes = np.abs(self.coeffs)
        if unit != 1.0:
            # every weight is 1 (hbar = 1): skipping them gives the same sizes
            # with less work, on the hot canonicalization path
            sizes *= unit ** self._exponents().sum(axis=1)
        return sizes

    def is_zero(self) -> bool:
        return not len(self.keys)

    def degree(self) -> int:
        """Total degree, -1 for the zero polynomial; found once per polynomial."""
        if self._degree is None:
            self._degree = int(np.add.reduce(self._exponents(), axis=1).max(initial=-1))
        return self._degree

    def coeff_abs_sum(self, unit: float) -> float:
        """Sum of |c| * unit^|e|: the coefficient mass once z is measured in `unit`."""
        return float(self._sizes(unit).sum())

    def max_abs_coeff(self, unit: float = 1.0) -> float:
        """Largest |c| * unit^|e|: the coefficient size once z is measured in `unit`."""
        return float(self._sizes(unit).max(initial=0.0))

    @property
    def terms(self) -> Dict[Exponent, complex]:
        """{exponent: coeff} in key order, built on each read: for callers
        outside the kernels, which all run on the arrays."""
        return dict(zip(map(tuple, self._exponents().tolist()), self.coeffs.tolist()))

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        return _summed(self.dim, (self, other))

    def __sub__(self, other: "Poly") -> "Poly":
        return _summed(self.dim, (self, Poly.from_packed(other.dim, other.keys, -other.coeffs)))

    def scaled(self, c: complex) -> "Poly":
        if c == 0:
            return Poly(self.dim)
        return _nonzero(self.dim, self.keys, self.coeffs * c)

    def rescaled(self, unit: float) -> "Poly":
        """P(unit * w) as a polynomial in w: the coefficient of z^e times unit^|e|."""
        return _nonzero(self.dim, self.keys, self.coeffs * unit ** self._exponents().sum(axis=1))

    def mul(self, other: "Poly") -> "Poly":
        """Product: every pair of terms, self's in the outer loop, in one
        merge; a one-term factor only shifts the other's keys, which stay
        sorted.  ValueError when the degree would overflow a packed field."""
        dim = self.dim
        if self.is_zero() or other.is_zero():
            return Poly(dim)
        check_packed_degree(self.degree() + other.degree(), packed_bits(dim), dim)
        if len(other.keys) == 1:
            return _nonzero(dim, self.keys + other.keys[0], self.coeffs * other.coeffs[0])
        if len(self.keys) == 1:
            return _nonzero(dim, other.keys + self.keys[0], self.coeffs[0] * other.coeffs)
        return Poly.from_packed(dim, *merge((self.keys[:, None] + other.keys).ravel(),
                                            (self.coeffs[:, None] * other.coeffs).ravel()))

    def conj(self) -> "Poly":
        return Poly.from_packed(self.dim, self.keys, self.coeffs.conj())

    def affine_sub(self, M, shift=None) -> "Poly":
        """Substitute z_i -> sum_j M[i, j] w_j + shift_i; result over w.

        Every term at once, a variable at a time: w takes the low fields and
        z the high ones of one packing, and each term whose z_i has exponent
        k trades that field for the k-th power of z_i's linear form, in one
        merge per variable.
        """
        M = np.asarray(M, dtype=complex)
        dim_out = M.shape[1]
        shift = np.zeros(M.shape[0], dtype=complex) if shift is None else np.asarray(shift, dtype=complex)
        bits = packed_bits(dim_out + self.dim)
        check_packed_degree(self.degree(), bits, dim_out + self.dim)
        keys, coeffs = pack(self._exponents(), bits) << bits * dim_out, self.coeffs
        form_keys = np.array([0, *(1 << bits * j for j in range(dim_out))], dtype=np.int64)
        for i in range(self.dim):
            at = bits * (dim_out + i)
            e = (keys >> at) & ((1 << bits) - 1)
            rest, form = keys - (e << at), np.concatenate(([shift[i]], M[i]))
            power_keys, power = np.zeros(1, dtype=np.int64), np.ones(1, dtype=complex)
            parts_k, parts_c = [], []
            for k in range(int(e.max(initial=0)) + 1):
                if k:
                    power_keys, power = merge((power_keys[:, None] + form_keys).ravel(),
                                              (power[:, None] * form).ravel())
                has = e == k
                parts_k.append((rest[has, None] + power_keys).ravel())
                parts_c.append((coeffs[has, None] * power).ravel())
            keys, coeffs = merge(np.concatenate(parts_k), np.concatenate(parts_c))
        return Poly.from_packed(dim_out, pack(unpack(keys, dim_out, bits), packed_bits(dim_out)), coeffs)

    def pruned(self, abs_tol: float, unit: float) -> "Poly":
        """Keep the terms with |c| * unit^|e| > abs_tol."""
        keep = self._sizes(unit) > abs_tol
        if keep.all():
            return self
        return Poly.from_packed(self.dim, self.keys[keep], self.coeffs[keep])

    def canonical_items(self):
        """Items sorted in graded-lex order (total degree, then exponents)."""
        exps = self._exponents()
        order = np.lexsort((*exps.T[::-1], exps.sum(axis=1)))
        return list(zip(map(tuple, exps[order].tolist()), self.coeffs[order].tolist()))

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        bits = [f"{c:.6g}*z^{e}" for e, c in itertools.islice(self.canonical_items(), 8)]
        more = "" if len(self.keys) <= 8 else f" +{len(self.keys) - 8} terms"
        return "Poly(" + " + ".join(bits) + more + ")"


def _summed(dim: int, polys: Sequence[Poly]) -> Poly:
    """The sum of `polys`: their sorted runs in one merge, which adds each
    monomial's coefficients in list order."""
    polys = [p for p in polys if len(p.keys)]
    if len(polys) < 2:
        return polys[0] if polys else Poly(dim)
    return Poly.from_packed(dim, *merge(np.concatenate([p.keys for p in polys]),
                                        np.concatenate([p.coeffs for p in polys]), kind="stable"))


def _nonzero(dim: int, keys: np.ndarray, coeffs: np.ndarray) -> Poly:
    """The Poly of sorted distinct keys, without the coefficients that are exactly 0."""
    if coeffs.all():
        return Poly.from_packed(dim, keys, coeffs)
    keep = coeffs != 0
    return Poly.from_packed(dim, keys[keep], coeffs[keep])


def packed_bits(dim: int) -> int:
    """Widest per-variable field for `dim` variables in a non-negative int64."""
    return 63 // dim if dim else 0


def check_packed_degree(degree: int, bits: int, dim: int) -> None:
    """ValueError when a packed result of total degree `degree` would overflow."""
    if degree >= 1 << bits:
        raise ValueError(f"degree {degree} exceeds the {(1 << bits) - 1} that packed "
                         f"exponents hold over {dim} variables")


@functools.lru_cache(maxsize=None)
def _shifts(dim: int, bits: int) -> np.ndarray:
    """Where each of `dim` fields of `bits` bits starts (read-only)."""
    shifts = np.arange(dim, dtype=np.int64) * bits
    shifts.flags.writeable = False
    return shifts


def pack(exps: np.ndarray, bits: int) -> np.ndarray:
    """(n, dim) exponent rows -> n int64 keys."""
    return np.add.reduce(exps << _shifts(exps.shape[1], bits), axis=1)


def unpack(keys: np.ndarray, dim: int, bits: int) -> np.ndarray:
    """n int64 keys -> (n, dim) exponent rows."""
    return (keys[:, None] >> _shifts(dim, bits)) & ((1 << bits) - 1)


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

"""Closed-form Gaussian calculus for polynomial-times-exponential integrands.

Everything here works on raw data: a complex symmetric matrix A, vector b,
scalar c and a sparse `Poly` prefactor, denoting

    P(z) * exp(-1/2 z^T A z + b^T z + c),   z in C^d (evaluated on R^d).

Conventions:

* integral over R^d of exp(-1/2 z^T A z + b^T z) equals
  (2 pi)^(d/2) det(A)^(-1/2) exp(1/2 b^T A^{-1} b), valid for Re A > 0 and
  extended to oscillatory exponents by the Fresnel limit A -> A + eps*I,
  eps -> 0+.  For nonsingular A with Re A >= 0 and no negative real
  eigenvalue (anything else raises NonIntegrable) the closed form is analytic
  in eps at 0, so the limit is evaluated directly at eps = 0.  The
  determinant root is the product of per-eigenvalue principal square roots,
  the branch continuous along eps.
* polynomial moments come from the Gaussian integration-by-parts recursion
      E[z^(a+e_i)] = mu_i E[z^a] + sum_j Sigma_ij a_j E[z^(a-e_j)]
  with mu = A^{-1} b and Sigma = A^{-1}; it holds for complex symmetric A by
  analytic continuation.
"""

from __future__ import annotations

import functools
import math
import weakref
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .poly import Exponent, Poly, check_packed_degree, merge, merge_index, pack, packed_bits, unpack

_EIG_TOL = 1e-12
# Products per merge of the composition's kappa terms: one sort over many
# long runs costs more than a sort per run, so a batch closes at this size.
_BATCH_ENTRIES = 2048


class NonIntegrable(Exception):
    """Gaussian integral has no eps -> 0+ Fresnel limit."""


class GaussianCompositionSingular(Exception):
    """Composed quadratic form of a star product is singular."""


def sym(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + A.T)


def _branch_sqrt_det(eigs: np.ndarray) -> complex:
    """Product of principal square roots of the eigenvalues lambda_k.

    When every lambda_k is nonzero and has Re >= 0 (callers must check), no
    lambda_k + eps crosses the principal root's branch cut for eps >= 0, so
    this is the branch of det(A + eps I)^(1/2) continued from large eps.
    """
    out = 1.0 + 0j
    for lam in eigs:
        out *= np.sqrt(lam)
    return complex(out)


def _check_fresnel_spectrum(A: np.ndarray, scale: float) -> np.ndarray:
    """Return eigenvalues of A; raise NonIntegrable when the eps-limit fails.

    Requires Re A >= 0 (so the damped integral exists for every eps > 0) and
    A nonsingular (so the limit is finite).
    """
    tol = _EIG_TOL * max(scale, 1.0)
    re_eigs = np.linalg.eigvalsh(sym(A.real))
    if re_eigs.min() < -tol:
        raise NonIntegrable("exponent grows on the real domain (Re A indefinite)")
    eigs = np.linalg.eigvals(A)
    if np.abs(eigs).min() <= tol:
        raise NonIntegrable("singular quadratic form (det A ~ 0)")
    for lam in eigs:
        if abs(lam.imag) <= tol and lam.real < 0:
            raise NonIntegrable("negative real eigenvalue in the exponent")
    return eigs


def moments_scalar(Sigma: np.ndarray, mu: np.ndarray, needed: Sequence[Exponent]) -> Dict[Exponent, complex]:
    """Moment table E[z^alpha] for a (complex) Gaussian with mean mu, cov Sigma.

    The recursion of `moments_poly` with no variables kept, on Python
    scalars: the one integral of `integrate_poly_exp` needs short tables, on
    which numpy's per-call overhead would make the packed recursion several
    times slower.  As there, a term whose weight mu_i or Sigma_ij is exactly
    zero is skipped, with the moment it would read.
    """
    dim = len(mu)
    memo: Dict[Exponent, complex] = {(0,) * dim: 1.0 + 0j}

    def get(alpha: Exponent) -> complex:
        got = memo.get(alpha)
        if got is not None:
            return got
        i = max(k for k in range(dim) if alpha[k] > 0)
        beta = list(alpha)
        beta[i] -= 1
        beta_t = tuple(beta)
        val = mu[i] * get(beta_t) if mu[i] != 0 else 0j
        for j in range(dim):
            if beta_t[j] and Sigma[i, j] != 0:
                gamma = list(beta_t)
                gamma[j] -= 1
                val += Sigma[i, j] * beta_t[j] * get(tuple(gamma))
        memo[alpha] = val
        return val

    return {a: get(tuple(a)) for a in needed}


def _grown(array: np.ndarray, n: int) -> np.ndarray:
    """A copy of `array` with room for at least n entries (doubled, so that
    each entry is copied O(1) times)."""
    out = np.empty(max(2 * len(array), n), dtype=array.dtype)
    out[:len(array)] = array
    return out


class _Step:
    """How one degree's tables are built: the entries the parts read (`at`),
    each part's weight (index into the flattened weights, integer factor)
    and how many entries it reads, each product's target (product k adds to
    entry inv[k] of the degree, see `_merge_tables`), and the degree's
    entries [lo, hi)."""

    __slots__ = ("at", "widx", "factors", "sizes", "inv", "lo", "hi")

    def __init__(self, at: np.ndarray, widx: np.ndarray, factors: np.ndarray, sizes: np.ndarray,
                 inv: np.ndarray, lo: int, hi: int) -> None:
        self.at, self.widx, self.factors, self.sizes = at, widx, factors, sizes
        self.inv, self.lo, self.hi = inv, lo, hi

    def run(self, weights: np.ndarray, coeffs: np.ndarray) -> None:
        """Compute the degree's coefficients from the lower ones in `coeffs`."""
        products = np.repeat(weights[self.widx] * self.factors, self.sizes) * coeffs[self.at]
        level = coeffs[self.lo:self.hi]
        level.real = np.bincount(self.inv, products.real, self.hi - self.lo)
        level.imag = np.bincount(self.inv, products.imag, self.hi - self.lo)


class _Program(NamedTuple):
    """What `moments_poly` does for one request from one state: the `_Step`
    per degree built, the keys and index the memo holds after, the entries
    of the requested tables in the result's order, and each one's size."""

    levels: List[_Step]
    keys: np.ndarray
    index: np.ndarray
    at: np.ndarray
    sizes: np.ndarray


class MomentPlan:
    """The structure of the moment recursion for one sparsity pattern: the
    slot masks and ones of `_slots` restricted to the live weights.  Which
    tables a request builds, their keys and the order of every sum depend
    only on the pattern, so the memos of every (Sigma, lin, shift) with
    that pattern share the plan, and each memo adds only its numbers.

    The plan keeps the `_Program` of a memo's first request (`needed` as
    bytes), which a memo of another context with the pattern replays when
    its first request is the same.  A memo's later requests, from states
    that depend on all its earlier ones, are compiled, run and dropped, so
    that what the plan keeps does not grow with a memo's history."""

    __slots__ = ("masks", "ones", "programs", "__weakref__")

    def __init__(self, masks: np.ndarray, ones: np.ndarray) -> None:
        self.masks, self.ones = masks, ones
        self.programs: Dict[bytes, _Program] = {}


# held weakly: a plan lives as long as a memo that uses it
_PLANS: "weakref.WeakValueDictionary[tuple, MomentPlan]" = weakref.WeakValueDictionary()


class MomentMemo:
    """The moment tables `moments_poly` has built for one (Sigma, lin, shift).

    The entries of every table sit in the flat arrays `keys` and `coeffs`,
    in the order they were built, of which the first `size` are filled;
    the rows of `index` are the tables' packed alphas, sorted, and each
    one's first entry and size.  On first use the memo takes the plan of
    its sparsity pattern, `weights`, the recursion's weights flattened per
    last index i and slot (see `_slots`), and E[z^0] = 1 at entry 0.

    A memo writes only past `size` or into a fresh array, and never writes
    an index array once built, so a kept `_Program` may hold a view of the
    keys and the index of the memo that compiled it.
    """

    def __init__(self) -> None:
        self.plan: MomentPlan | None = None
        self.weights: np.ndarray | None = None
        self.keys = np.zeros(256, dtype=np.int64)
        self.coeffs = np.ones(256, dtype=complex)
        self.size = 0
        self.index = np.zeros((3, 0), dtype=np.int64)

    def __len__(self) -> int:
        return self.index.shape[1]

    def add(self, keys: np.ndarray, tables: np.ndarray) -> None:
        """Append the tables `tables` (rows alpha, first entry within `keys`,
        size) and their entries' `keys`, with room for their coefficients."""
        lo, hi = self.size, self.size + len(keys)
        if hi > len(self.keys):
            self.keys = _grown(self.keys[:lo], hi)
        if hi > len(self.coeffs):
            self.coeffs = _grown(self.coeffs[:lo], hi)
        self.keys[lo:hi] = keys
        self.size = hi
        tables[1] += lo
        index = np.concatenate((self.index, tables), axis=1)
        self.index = index[:, index[0].argsort(kind="stable")]     # two sorted runs


@functools.lru_cache(maxsize=None)
def _slots(dim: int, nw: int, bits: int) -> Tuple[np.ndarray, ...]:
    """The slots of the moment recursion, for exponents over `dim` variables
    and tables over `nw` variables of `bits` bits.

    E[z^(beta + e_i)] = mu_i E[z^beta] + sum_j Sigma_ij beta_j E[z^(beta - e_j)],
    with mu_i = lin[i] . w + shift[i], has a part per slot, in the order of
    the table-by-table recursion: the nw linear terms of mu_i (key offset
    1 << bits k), its constant, then Sigma_ij for each j.  Returns the units
    of alpha's fields; per slot, the unit a part takes from beta to find the
    table it reads, the shift and mask that give beta_j (0 on a mean slot),
    1 on a mean slot, and the key offset; and per last index i of alpha and
    slot, whether the slot can apply (a Sigma slot needs j <= i: beta_j = 0
    beyond i).
    """
    abits = packed_bits(dim)
    fields = abits * np.arange(dim, dtype=np.int64)
    units = np.left_shift(1, fields)
    mean = np.zeros(nw + 1, dtype=np.int64)
    slot_units = np.concatenate((mean, units))
    shifts = np.concatenate((mean, fields))
    masks = np.concatenate((mean, np.full(dim, (1 << abits) - 1)))
    ones = np.concatenate((mean + 1, 0 * fields))
    offsets = np.concatenate((np.left_shift(1, bits * np.arange(nw, dtype=np.int64)), 0 * units, [0]))
    applies = np.ones((dim, nw + 1 + dim), dtype=bool)
    applies[:, nw + 1:] = np.tri(dim, dtype=bool)
    slots = units, slot_units, shifts, masks, ones, offsets, applies
    for array in slots:
        array.flags.writeable = False               # shared by every caller of the cache
    return slots


def _plan(dim: int, nw: int, bits: int, weights: np.ndarray) -> MomentPlan:
    """The shared plan of the pattern (dim, nw, bits, which weights are live)."""
    _, _, _, slot_masks, slot_ones, _, applies = _slots(dim, nw, bits)
    # per last index i, a slot's factor ((beta >> shift) & mask) | one is 1
    # on a mean slot, beta_j on a Sigma slot, and 0 where the slot cannot
    # apply or its weight is exactly zero
    live = (weights != 0) & applies
    key = (dim, nw, bits, live.tobytes())
    plan = _PLANS.get(key)
    if plan is None:
        plan = _PLANS[key] = MomentPlan(slot_masks * live, slot_ones * live)
    return plan


def moments_poly(Sigma: np.ndarray, lin: np.ndarray, shift: np.ndarray, bits: int,
                 needed: np.ndarray, memo: MomentMemo) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Moment tables E[z^alpha] whose mean is affine in other variables w.

    Mean component i is lin[i] . w + shift[i] over the lin.shape[1]
    variables w, as when a Gaussian block is integrated out and the
    completed-square mean depends on the variables kept.  Tables are packed
    polynomials in w with `bits` per variable, and the caller keeps every
    exponent below 2**bits.  `needed` holds exponents alpha as rows; the
    result is (keys, coeffs, sizes): their tables concatenated in that
    order, and each one's size (read-only).  `memo` may be shared across
    calls with identical (Sigma, lin, shift).

    A memo that holds every requested table answers from its index
    (`_held`).  Other requests run the program that `_compile` makes, and a
    memo that holds only E[z^0] = 1 replays the plan's program for the same
    request when there is one (see `MomentPlan`): it copies the program's
    keys and runs its steps on its own weights.  A program says which
    tables to build and, per total degree, which entries each product
    reads, with which weight, and where it adds.  Running it takes, per
    degree, one gather of the entries read, one product with the part
    weights, a bincount each for the real and imaginary parts (each sums in
    input order), and one store.  A table keeps every key that a part of
    the recursion reaches, also where the coefficient cancels to exactly 0,
    so that its keys do not depend on the numbers: callers merge the tables
    into their products and drop those zeros there.  The zeros add only
    +-0 to other sums, whose bincounts start at +0, so every other
    coefficient is bit-identical to the table-by-table recursion.
    """
    dim, nw = lin.shape
    needed = np.array(needed, dtype=np.int64).reshape(-1, dim)
    check_packed_degree(needed.sum(axis=1).max(initial=0), packed_bits(dim), dim)
    alphas = needed @ _slots(dim, nw, bits)[0]
    if memo.plan is None:
        weights = np.concatenate((lin, shift[:, None], Sigma), axis=1).astype(complex)
        memo.plan, memo.weights = _plan(dim, nw, bits, weights), weights.ravel()
        memo.size, memo.index = 1, np.array([[0], [0], [1]], dtype=np.int64)    # E[z^0] = 1
    elif len(memo) > 1 and (held := _held(memo, alphas)) is not None:
        return memo.keys[held[0]], memo.coeffs[held[0]], held[1]
    program = memo.plan.programs.get(needed.tobytes()) if len(memo) == 1 else None
    if program is None:
        program = _compile(memo, nw, bits, needed, alphas)
    else:
        memo.keys, memo.index, memo.size = program.keys.copy(), program.index, len(program.keys)
        memo.coeffs = _grown(memo.coeffs[:1], memo.size)
        for step in program.levels:
            step.run(memo.weights, memo.coeffs)
    return memo.keys[program.at], memo.coeffs[program.at], program.sizes


def _compile(memo: MomentMemo, nw: int, bits: int, needed: np.ndarray, alphas: np.ndarray) -> _Program:
    """The program that builds the tables `needed` asks for and the memo
    lacks, run on the memo; the plan keeps it when the memo held only
    E[z^0] = 1.

    A part of the recursion whose weight is exactly zero adds nothing, so
    it is skipped, and so is the table it would read.  The missing tables
    are found a total degree at a time from the top (degree L reads L - 1
    for its mean parts and L - 2 for its Sigma parts), in the memo's
    sorted index, then built from the bottom, a degree at a time, each
    degree's keys and tables added to the memo before its step runs.  A
    sort and a neighbour test stand in for np.unique, which costs more on
    short arrays and whose first call imports numpy.ma (5 ms, numpy 2.4).
    """
    first = len(memo) == 1
    degrees = needed.sum(axis=1)
    counts = np.bincount(degrees).tolist()

    # the walk: per degree from the top, the tables to build
    want: Dict[int, list] = {}
    walk = []
    have = memo.index[0]
    for level in range(len(counts) - 1, 0, -1):
        cand = want.pop(level, [])
        if counts[level]:
            cand.append(alphas[degrees == level])
        if not cand:
            continue
        cand = np.concatenate(cand)
        cand.sort()
        fresh = have.take(have.searchsorted(cand), mode="clip") != cand
        fresh[1:] &= cand[1:] != cand[:-1]                 # the first of each run
        cand = cand[fresh]
        if not len(cand):
            continue
        parts = _parts(memo.plan, nw, bits, cand)
        walk.append((level, cand, parts))
        want.setdefault(level - 1, []).append(parts[-2])
        want.setdefault(level - 2, []).append(parts[-1])

    # a degree-L table has degree <= L in w, so its keys stay below L << top
    top = bits * max(nw - 1, 0)
    steps = []
    for level, cand, (t, widx, factors, part_offsets, src, _, _) in reversed(walk):
        starts, sizes = memo.index[1:, memo.index[0].searchsorted(src)]
        at = _entries(starts, sizes)
        keys, inv, tables = _merge_tables(memo.keys[at], t, part_offsets, sizes,
                                          cand, top + level.bit_length())
        step = _Step(at, widx, factors, sizes, inv, memo.size, memo.size + len(keys))
        memo.add(keys, tables)
        step.run(memo.weights, memo.coeffs)
        steps.append(step)

    program = _Program(steps, memo.keys[:memo.size], memo.index, *_held(memo, alphas))
    if first:
        memo.plan.programs[needed.tobytes()] = program
    return program


def _held(memo: MomentMemo, alphas: np.ndarray) -> Tuple[np.ndarray, np.ndarray] | None:
    """The entries of the tables `alphas` and their sizes (read-only), or None if one is missing."""
    rows = memo.index[0].searchsorted(alphas)
    if not np.array_equal(memo.index[0].take(rows, mode="clip"), alphas):
        return None
    starts, sizes = memo.index[1:, rows]
    sizes.flags.writeable = False
    return _entries(starts, sizes), sizes


def _parts(plan: MomentPlan, nw: int, bits: int, cand: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The parts of the tables `cand` of one degree, in the order of the
    table-by-table recursion: each one's table (place in cand), weight
    (index into the flattened weights, integer factor), key offset and
    source table, and the sources of degree L - 1 and L - 2."""
    dim = plan.masks.shape[0]
    units, slot_units, shifts, _, _, offsets, _ = _slots(dim, nw, bits)
    last = units.searchsorted(cand, "right") - 1
    beta = cand - units[last]
    factors = ((beta[:, None] >> shifts) & plan.masks[last]) | plan.ones[last]
    t, slot = factors.nonzero()
    src = beta[t] - slot_units[slot]
    deep = slot > nw
    return t, last[t] * plan.masks.shape[1] + slot, factors[t, slot], offsets[slot], src, src[~deep], src[deep]


def _merge_tables(src_keys: np.ndarray, t: np.ndarray, part_offsets: np.ndarray, sizes: np.ndarray,
                  cand: np.ndarray, width: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The keys of the tables `cand` of one degree, each product's target
    among them, and the tables' rows (alpha, first entry, size), from the
    keys the parts read.

    A product's key is its source key plus its part's offset, with its
    table's place from bit `width` up.  The products come in the order of
    the table-by-table recursion, as sorted runs, which the stable sort
    merges.  A merge holds `cap` tables, so that (table, key) stays in an
    int64.
    """
    n = len(cand)
    cap = (1 << (63 - width)) - 1
    keys = src_keys + np.repeat(((t % cap) << width) + part_offsets, sizes)
    if n <= cap:
        level_keys, inv = merge_index(keys, kind="stable")
        table_sizes = np.bincount(level_keys >> width, minlength=n)
    else:
        firsts = [*range(0, n, cap), n]
        edges = np.concatenate(([0], sizes.cumsum()))[t.searchsorted(firsts)].tolist()
        merged = [merge_index(keys[lo:hi], kind="stable") for lo, hi in zip(edges, edges[1:])]
        table_sizes = [np.bincount(k >> width, minlength=f1 - f0)
                       for (k, _), f0, f1 in zip(merged, firsts, firsts[1:])]
        bases = np.cumsum([0] + [len(k) for k, _ in merged]).tolist()
        level_keys = np.concatenate([k for k, _ in merged])
        inv = np.concatenate([inv + base for (_, inv), base in zip(merged, bases)])
        table_sizes = np.concatenate(table_sizes)
    level_keys &= (1 << width) - 1
    tables = np.empty((3, n), dtype=np.int64)
    tables[0], tables[2] = cand, table_sizes
    np.cumsum(table_sizes, out=tables[1])
    tables[1] -= table_sizes
    return level_keys, inv, tables


@functools.lru_cache(maxsize=None)
def _falling_factorials(size: int) -> np.ndarray:
    """perms[g, k] = g!/(g-k)! for g, k < size, as floats (read-only)."""
    perms = np.frompyfunc(math.perm, 2, 1)(*np.indices((size, size))).astype(float)
    perms.flags.writeable = False
    return perms


def _entries(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The indices of the runs [starts[n], starts[n] + sizes[n]), in order."""
    ends = sizes.cumsum()
    return np.repeat(starts - ends + sizes, sizes) + np.arange(ends[-1] if len(ends) else 0)


def integrate_poly_exp(A: np.ndarray, b: np.ndarray, c: complex, poly: Poly) -> complex:
    """Fresnel-regularized integral of P(z) exp(-z.A.z/2 + b.z + c) over R^d.

    On the spectra `_check_fresnel_spectrum` admits, the closed form is
    analytic in eps at 0, so the eps -> 0+ limit is its value at eps = 0.
    """
    if poly.is_zero():
        return 0j
    d = A.shape[0]
    eigs = _check_fresnel_spectrum(A, float(np.abs(A).max(initial=0.0)))
    Ainv = np.linalg.inv(A)
    mu = Ainv @ b
    base = (2.0 * math.pi) ** (d / 2.0) / _branch_sqrt_det(eigs) * np.exp(0.5 * b @ mu + c)
    exps = list(map(tuple, unpack(poly.keys, d, packed_bits(d)).tolist()))
    mom = moments_scalar(Ainv, mu, exps)
    return complex(base * sum(coef * mom[e] for e, coef in zip(exps, poly.coeffs.tolist())))


def integrate_partial(A: np.ndarray, b: np.ndarray, c: complex, poly: Poly,
                      out_idx: Sequence[int]) -> Tuple[np.ndarray, np.ndarray, complex, Poly]:
    """Integrate out the variables `out_idx`, keeping the rest.

    Returns (A', b', c', P') over the kept variables, in their original
    relative order.  The out-block goes through `_check_fresnel_spectrum`
    (NonIntegrable otherwise), and the prefactor is the closed form at
    eps = 0, as in `integrate_poly_exp`.
    """
    d = A.shape[0]
    out_idx = sorted(out_idx)
    keep_idx = [i for i in range(d) if i not in out_idx]
    S, K = np.ix_(out_idx, out_idx), np.ix_(keep_idx, keep_idx)
    A_ss = A[S]
    A_sk = A[np.ix_(out_idx, keep_idx)]
    scale = float(np.abs(A_ss).max(initial=0.0))
    eigs = _check_fresnel_spectrum(A_ss, scale)
    M_inv = np.linalg.inv(A_ss)
    b_s, b_k = b[out_idx], b[keep_idx]

    A_new = sym(A[K] - A_sk.T @ M_inv @ A_sk)
    b_new = b_k - A_sk.T @ (M_inv @ b_s)
    c_new = c + 0.5 * b_s @ (M_inv @ b_s)
    pref = (2.0 * math.pi) ** (len(out_idx) / 2.0) / _branch_sqrt_det(eigs)

    nk = len(keep_idx)
    if poly.is_zero():
        return A_new, b_new, complex(c_new), Poly(nk)
    # each monomial is its kept part times the moment of its integrated-out
    # part, whose mean is affine in the kept variables
    bits = packed_bits(max(nk, 1))
    check_packed_degree(poly.degree(), bits, nk)
    exps = unpack(poly.keys, d, packed_bits(d))
    mom_keys, mom_coeffs, sizes = moments_poly(M_inv, -M_inv @ A_sk, M_inv @ b_s, bits,
                                               exps[:, out_idx], MomentMemo())
    keys = np.repeat(pack(exps[:, keep_idx], bits), sizes) + mom_keys
    new_poly = Poly.from_packed(nk, *merge(keys, np.repeat(poly.coeffs, sizes) * mom_coeffs))
    return A_new, b_new, complex(c_new), new_poly.scaled(pref)


class CompositionContext:
    """Shared data for the Gaussian star composition at fixed exponents, at
    hbar = 1 (the star product at any other hbar maps to it in natural units;
    see `star._compose_term_pair`).

    Built once per (A1, b1, A2, b2) pair; the Hermite-moment tables are
    memoized so that families sharing a common exponent (every ladder-built
    eigenfunction family does) reuse all recursion work.
    """

    def __init__(self, n_dof: int, A1: np.ndarray, b1: np.ndarray, A2: np.ndarray, b2: np.ndarray):
        d = 2 * n_dof
        self.d = d
        kappa = 2j
        J = np.zeros((d, d))
        J[:n_dof, n_dof:] = np.eye(n_dof)
        J[n_dof:, :n_dof] = -np.eye(n_dof)

        AA = np.zeros((2 * d, 2 * d), dtype=complex)
        AA[:d, :d] = A1
        AA[d:, d:] = A2
        AA[:d, d:] = -kappa * J
        AA[d:, :d] = -kappa * J.T
        scale = float(np.abs(AA).max(initial=0.0))
        tol = _EIG_TOL * max(scale, 1.0)
        eigs = np.linalg.eigvals(AA)
        # a defective AA's zero eigenvalues come out far above tol: its
        # singular values say whether it is singular
        sv = np.linalg.svd(AA, compute_uv=False)
        if sv[-1] <= _EIG_TOL * max(sv[0], 1.0):
            raise GaussianCompositionSingular("composed quadratic form is singular")
        for lam in eigs:
            if abs(lam.imag) <= tol and lam.real < 0:
                raise GaussianCompositionSingular(
                    "no Fresnel branch: negative real eigenvalue in composition")

        G = np.linalg.inv(AA)
        B = np.zeros((2 * d, d), dtype=complex)
        B[:d, :] = -kappa * J
        B[d:, :] = kappa * J
        beta0 = np.concatenate([b1, b2])

        self.A3 = sym(-B.T @ G @ B)
        self.b3 = B.T @ (G @ beta0)
        self.c3_base = 0.5 * beta0 @ (G @ beta0)          # add c1 + c2 at use site
        self.pref = 2.0 ** d / _branch_sqrt_det(eigs)

        T = G @ B                                          # (2d, d): z-coupling of the source means
        s_vec = G @ beta0
        # Means of the Hermite recursions, as affine forms (rows of lin, shift):
        # the u-block's over z, the v-block's over (z, u-symbols), with the
        # u-coupling kept symbolic.  Moment tables are packed polynomials over
        # (z, u) with `bits` per variable; z-only tables use the first d fields.
        self.bits = packed_bits(2 * d)
        self.G_uu = G[:d, :d]
        self.G_vv = G[d:, d:]
        self._u_form = (T[:d, :], s_vec[:d])
        self._v_form = (np.concatenate([T[d:, :], G[d:, :d]], axis=1), s_vec[d:])
        self._mu_memo = MomentMemo()
        self._mv_memo = MomentMemo()

    def compose(self, P1: Poly, P2: Poly) -> Poly:
        """Prefactor polynomial of (P1 e^{q1}) star (P2 e^{q2}), without `pref`.

        Implements P1(d/db1) P2(d/db2) applied to the pure-exponential
        composition, via block-Hermite recursions: the v-block is reduced
        first with the u-coupling kept symbolic, then the u-block.  With
        Phi(z, u) = sum_delta c2_delta mv_delta = sum_kappa phi_kappa(z) u^kappa,
        the result is sum_kappa phi_kappa psi_kappa, where
        psi_kappa = sum_{gamma >= kappa} c1_gamma gamma!/(gamma-kappa)! mu_{gamma-kappa}.
        """
        d, bits, poly_bits = self.d, self.bits, packed_bits(self.d)
        if P1.is_zero() or P2.is_zero():
            return Poly(d)
        check_packed_degree(P1.degree() + P2.degree(), bits, 2 * d)
        mv_keys, mv_coeffs, sizes = moments_poly(self.G_vv, *self._v_form, bits,
                                                 unpack(P2.keys, d, poly_bits), self._mv_memo)
        keys, coeffs = merge(mv_keys, np.repeat(P2.coeffs, sizes) * mv_coeffs)
        # keys are sorted, and u sits in the high fields: each kappa is one run
        z_bits = bits * d
        high = keys >> z_bits
        change = np.empty(len(high), dtype=bool)
        change[:1] = True
        np.not_equal(high[1:], high[:-1], out=change[1:])
        starts = change.nonzero()[0]
        kappas, bounds = high[starts], np.append(starts, len(keys))
        runs = bounds[1:] - starts
        kappa_exps = unpack(kappas, d, bits)
        gammas = unpack(P1.keys, d, poly_bits)
        fits = np.ones((len(kappas), len(gammas)), dtype=bool)
        for axis in range(d):
            fits &= kappa_exps[:, axis, None] <= gammas[:, axis]
        ki, gi = fits.nonzero()
        gam, kap = gammas[gi], kappa_exps[ki]
        # c1 gamma!/(gamma-kappa)!, multiplied axis by axis as c1 * perm(g0, k0) * perm(g1, k1) ...
        perms = _falling_factorials(int(gammas.max()) + 1)
        weights = P1.coeffs[gi]
        for axis in range(d):
            weights = weights * perms[gam[:, axis], kap[:, axis]]
        u_keys, u_coeffs, n = moments_poly(self.G_uu, *self._u_form, bits, gam - kap, self._mu_memo)
        if not len(gi):
            return Poly(d)

        # psi_kappa, then phi_kappa psi_kappa, one merge each per run of whole kappas cut
        # about every _BATCH_ENTRIES products; keys hold kappa (2 kappa) above the z fields.
        # The u-tables come in pair order, so a run's pairs read one slice of them.
        pair_at = ki.searchsorted(np.arange(len(kappas) + 1))
        entry_at = np.concatenate(([0], n.cumsum()))[pair_at].tolist()
        products = np.concatenate(([0], (n * runs[ki]).cumsum()))[pair_at]
        crossed = np.diff(products // _BATCH_ENTRIES)[:-1] > 0
        cuts = [0, *(np.flatnonzero(crossed) + 1).tolist(), len(kappas)]
        pair_at, bounds = pair_at.tolist(), bounds.tolist()
        out = []
        for r0, r1 in zip(cuts, cuts[1:]):
            p0, p1, c0, c1, a0, a1 = pair_at[r0], pair_at[r1], entry_at[r0], entry_at[r1], bounds[r0], bounds[r1]
            a = np.repeat(np.arange(p1 - p0), n[p0:p1])
            psi_keys, psi_coeffs = merge((kappas[ki[p0:p1]] << z_bits)[a] + u_keys[c0:c1],
                                         weights[p0:p1][a] * u_coeffs[c0:c1])
            lo, hi = psi_keys.searchsorted(np.stack([kappas[r0:r1], kappas[r0:r1] + 1]) << z_bits)
            counts = np.repeat(hi - lo, runs[r0:r1])
            ia, ib = np.repeat(np.arange(len(counts)), counts), _entries(np.repeat(lo, runs[r0:r1]), counts)
            out.append(merge(keys[a0:a1][ia] + psi_keys[ib], coeffs[a0:a1][ia] * psi_coeffs[ib]))
        keys, coeffs = merge(np.concatenate([k for k, _ in out]) & ((1 << z_bits) - 1),
                             np.concatenate([c for _, c in out]))
        # to the product's own fields, which are as wide or wider: the order holds
        return Poly.from_packed(d, pack(unpack(keys, d, bits), poly_bits), coeffs)


_CTX_CACHE: Dict[tuple, CompositionContext] = {}


def composition_context(n_dof: int, A1: np.ndarray, b1: np.ndarray,
                        A2: np.ndarray, b2: np.ndarray) -> CompositionContext:
    """The context of (A1, b1, A2, b2), keyed by the exponents' exact bytes
    so that a product does not depend on what the cache held before.  The
    cache keeps its 128 most recently used contexts, and their plans."""
    key = (n_dof, A1.tobytes(), b1.tobytes(), A2.tobytes(), b2.tobytes())
    ctx = _CTX_CACHE.pop(key, None)
    if ctx is None:
        ctx = CompositionContext(n_dof, A1, b1, A2, b2)
        if len(_CTX_CACHE) >= 128:
            del _CTX_CACHE[next(iter(_CTX_CACHE))]     # the least recently used
    _CTX_CACHE[key] = ctx                              # newest last
    return ctx

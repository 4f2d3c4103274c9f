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

import math
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from .poly import Exponent, Poly, check_packed_degree, merge, pack, packed_bits, unpack

_EIG_TOL = 1e-12
# Entries per merge of the batched kernels.  One sort over many long tables
# costs more than a sort per table, so a batch closes at this size.
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
    times slower.
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
        val = mu[i] * get(beta_t)
        for j in range(dim):
            if beta_t[j]:
                gamma = list(beta_t)
                gamma[j] -= 1
                val += Sigma[i, j] * beta_t[j] * get(tuple(gamma))
        memo[alpha] = val
        return val

    return {a: get(tuple(a)) for a in needed}


Packed = Tuple[np.ndarray, np.ndarray]      # (int64 keys, complex coeffs); see poly


def moments_poly(Sigma: np.ndarray, lin: np.ndarray, shift: np.ndarray, bits: int,
                 needed: Iterable[Exponent], memo: Dict[Exponent, Packed]) -> Dict[Exponent, Packed]:
    """Moment tables E[z^alpha] whose mean is affine in other variables w.

    Mean component i is lin[i] . w + shift[i] over the lin.shape[1]
    variables w, as when a Gaussian block is integrated out and the
    completed-square mean depends on the variables kept.  Tables are packed
    polynomials in w with `bits` per variable, and the caller keeps every
    exponent below 2**bits.  `memo` may be shared across calls with
    identical (Sigma, lin, shift).

    Missing tables are built a total degree at a time (degree L needs L - 1
    and L - 2), many to a merge, each table's parts in the recursion's order.
    """
    dim = Sigma.shape[0]
    needed = list(map(tuple, needed))
    # mean component i times a table: (key shift, weight) of each linear term, then the constant
    steps = [[(1 << (bits * k), row[k]) for k in np.flatnonzero(row).tolist()] + [(0, const)]
             for row, const in zip(lin, shift)]
    if not memo:
        memo[(0,) * dim] = (np.zeros(1, dtype=np.int64), np.ones(1, dtype=complex))
    levels: Dict[int, list] = {}
    todo, seen = list(needed), set()
    while todo:
        alpha = todo.pop()
        if alpha in memo or alpha in seen:
            continue
        seen.add(alpha)
        i = max(k for k in range(dim) if alpha[k] > 0)
        levels.setdefault(sum(alpha), []).append((alpha, i))
        beta = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
        todo += [beta] + [beta[:j] + (beta[j] - 1,) + beta[j + 1:] for j in range(dim) if beta[j]]

    # a degree-L table has degree <= L in w, so its keys stay below L << top;
    # a batch's keys carry the table's place in it from bit `width` up
    top = bits * max(lin.shape[1] - 1, 0)
    for level, tables in sorted(levels.items()):
        width = top + level.bit_length()
        batch, parts, entries = [], [], 0
        for n, (alpha, i) in enumerate(tables, 1):
            base = len(batch) << width
            beta = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
            parts += [(*memo[beta], base + unit, weight) for unit, weight in steps[i]]
            parts += [(*memo[beta[:j] + (beta[j] - 1,) + beta[j + 1:]], base, Sigma[i, j] * beta[j])
                      for j in range(dim) if beta[j]]
            entries += len(memo[beta][0]) * (len(steps[i]) + dim)
            batch.append(alpha)
            if entries >= _BATCH_ENTRIES or len(batch) >> (63 - width) or n == len(tables):
                keys, coeffs, offsets, weights = zip(*parts)
                sizes = [len(k) for k in keys]
                keys, coeffs = merge(np.concatenate(keys) + np.repeat(offsets, sizes),
                                     np.repeat(weights, sizes) * np.concatenate(coeffs))
                bounds = [0, *np.searchsorted(keys, np.arange(1, len(batch)) << width).tolist(), len(keys)]
                keys &= (1 << width) - 1
                memo.update((a, (keys[lo:hi], coeffs[lo:hi])) for a, lo, hi in zip(batch, bounds, bounds[1:]))
                batch, parts, entries = [], [], 0
    return {a: memo[a] for a in needed}


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
    mom = moments_scalar(Ainv, mu, list(poly.terms))
    return complex(base * sum(coef * mom[e] for e, coef in poly.terms.items()))


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
    exps = np.array(list(poly.terms), dtype=np.int64)
    outs = list(map(tuple, exps[:, out_idx].tolist()))
    mom = moments_poly(M_inv, -M_inv @ A_sk, M_inv @ b_s, bits, outs, {})
    sizes = [len(mom[e][0]) for e in outs]
    keys = np.repeat(pack(exps[:, keep_idx], bits), sizes) + np.concatenate([mom[e][0] for e in outs])
    coeffs = np.repeat(list(poly.terms.values()), sizes) * np.concatenate([mom[e][1] for e in outs])
    new_poly = Poly.from_packed(nk, bits, *merge(keys, coeffs))
    return A_new, b_new, complex(c_new), new_poly.scaled(pref)


class CompositionContext:
    """Shared data for the Gaussian star composition at fixed exponents.

    Built once per (A1, b1, A2, b2) pair; the Hermite-moment tables are
    memoized so that families sharing a common exponent (every ladder-built
    eigenfunction family does) reuse all recursion work.
    """

    def __init__(self, n_dof: int, hbar: float,
                 A1: np.ndarray, b1: np.ndarray, A2: np.ndarray, b2: np.ndarray):
        d = 2 * n_dof
        self.d = d
        kappa = 2j / hbar
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
        if np.abs(eigs).min() <= tol:
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
        self.pref = (2.0 / hbar) ** d / _branch_sqrt_det(eigs)

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
        self._mu_memo: Dict[Exponent, Packed] = {}
        self._mv_memo: Dict[Exponent, Packed] = {}

    def compose(self, P1: Poly, P2: Poly) -> Poly:
        """Prefactor polynomial of (P1 e^{q1}) star (P2 e^{q2}), without `pref`.

        Implements P1(d/db1) P2(d/db2) applied to the pure-exponential
        composition, via block-Hermite recursions: the v-block is reduced
        first with the u-coupling kept symbolic, then the u-block.  With
        Phi(z, u) = sum_delta c2_delta mv_delta = sum_kappa phi_kappa(z) u^kappa,
        the result is sum_kappa phi_kappa psi_kappa, where
        psi_kappa = sum_{gamma >= kappa} c1_gamma gamma!/(gamma-kappa)! mu_{gamma-kappa}.
        """
        d, bits = self.d, self.bits
        if P1.is_zero() or P2.is_zero():
            return Poly(d)
        check_packed_degree(P1.degree() + P2.degree(), bits, 2 * d)
        mv = moments_poly(self.G_vv, *self._v_form, bits, P2.terms, self._mv_memo)
        keys, coeffs = merge(np.concatenate([mv[delta][0] for delta in P2.terms]),
                             np.concatenate([c2 * mv[delta][1] for delta, c2 in P2.terms.items()]))
        # keys are sorted, and u sits in the high fields: each kappa is one run
        z_bits = bits * d
        kappas, starts, runs = np.unique(keys >> z_bits, return_index=True, return_counts=True)
        kappa_exps = unpack(kappas, d, bits)
        gammas = np.array(list(P1.terms), dtype=np.int64)
        ki, gi = np.nonzero((gammas[None, :, :] >= kappa_exps[:, None, :]).all(axis=2))
        gam, kap = gammas[gi], kappa_exps[ki]
        # c1 gamma!/(gamma-kappa)!, multiplied axis by axis as c1 * perm(g0, k0) * perm(g1, k1) ...
        perms = np.frompyfunc(math.perm, 2, 1)(*np.indices((gammas.max() + 1,) * 2)).astype(float)
        weights = np.array(list(P1.terms.values()), dtype=complex)[gi]
        for axis in range(d):
            weights = weights * perms[gam[:, axis], kap[:, axis]]
        uniq, which = np.unique(pack(gam - kap, bits), return_inverse=True)
        exps = list(map(tuple, unpack(uniq, d, bits).tolist()))
        mu = moments_poly(self.G_uu, *self._u_form, bits, exps, self._mu_memo)
        if not exps:
            return Poly(d)

        # psi_kappa, then phi_kappa psi_kappa, one merge each per run of whole kappas cut
        # about every _BATCH_ENTRIES products; keys hold kappa (2 kappa) above the z fields
        sizes = np.array([len(mu[e][0]) for e in exps])
        firsts, n = (np.cumsum(sizes) - sizes)[which], sizes[which]
        u_keys, u_coeffs = (np.concatenate([mu[e][t] for e in exps]) for t in (0, 1))
        pair_at = np.searchsorted(ki, np.arange(len(kappas) + 1))
        crossed = np.diff(np.append(0, np.cumsum(n * runs[ki]))[pair_at] // _BATCH_ENTRIES)[:-1] > 0
        cuts, bounds = [0, *(np.flatnonzero(crossed) + 1).tolist(), len(kappas)], np.append(starts, len(keys))
        out = []
        for r0, r1 in zip(cuts, cuts[1:]):
            (p0, p1), (a0, a1) = pair_at[[r0, r1]], bounds[[r0, r1]]
            a, at = _runs(firsts[p0:p1], n[p0:p1])
            psi_keys, psi_coeffs = merge((kappas[ki[p0:p1]] << z_bits)[a] + u_keys[at],
                                         weights[p0:p1][a] * u_coeffs[at])
            lo, hi = np.searchsorted(psi_keys, np.stack([kappas[r0:r1], kappas[r0:r1] + 1]) << z_bits)
            ia, ib = _runs(np.repeat(lo, runs[r0:r1]), np.repeat(hi - lo, runs[r0:r1]))
            out.append(merge(keys[a0:a1][ia] + psi_keys[ib], coeffs[a0:a1][ia] * psi_coeffs[ib]))
        return Poly.from_packed(d, bits, *merge(np.concatenate([k for k, _ in out]) & ((1 << z_bits) - 1),
                                                np.concatenate([c for _, c in out])))


def _runs(starts: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(a, b) for every b in [starts[a], starts[a] + counts[a]), in order."""
    a = np.repeat(np.arange(len(counts)), counts)
    return a, np.arange(len(a)) + (starts - np.cumsum(counts) + counts)[a]


_CTX_CACHE: Dict[bytes, CompositionContext] = {}


def composition_context(n_dof: int, hbar: float,
                        A1: np.ndarray, b1: np.ndarray,
                        A2: np.ndarray, b2: np.ndarray) -> CompositionContext:
    key_arr = np.concatenate([
        np.array([n_dof, hbar], dtype=complex),
        np.round(A1, 12).ravel(), np.round(b1, 12),
        np.round(A2, 12).ravel(), np.round(b2, 12),
    ])
    key = key_arr.tobytes()
    ctx = _CTX_CACHE.get(key)
    if ctx is None:
        if len(_CTX_CACHE) > 128:
            _CTX_CACHE.clear()
        ctx = CompositionContext(n_dof, hbar, A1, b1, A2, b2)
        _CTX_CACHE[key] = ctx
    return ctx

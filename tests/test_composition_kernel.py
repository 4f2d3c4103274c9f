"""The batched Gaussian composition kernel gives the table-by-table results
bit for bit.

`moments_poly` builds its tables a total degree at a time, many to a merge,
and `CompositionContext.compose` forms every kappa term in segmented merges.
Both keep each coefficient's order of summation, so every moment table and
every product must equal, bit for bit, what the recursions they replaced
give.  Those recursions are kept here as references.
"""

import math
import operator

import numpy as np
import pytest

from mqds import gausspoly
from mqds.algebra import VarSpace
from mqds.gausspoly import CompositionContext, moments_poly
from mqds.models import dho_f, oscillator_wigner
from mqds.poly import Poly, merge, multi_indices, unpack


def reference_moments_poly(Sigma, lin, shift, bits, needed, memo):
    """One merge per table, each built by a recursive call."""
    dim = Sigma.shape[0]
    units = np.left_shift(1, bits * np.arange(lin.shape[1], dtype=np.int64))
    steps = []
    for row in lin:
        nz = np.flatnonzero(row)
        steps.append((units[nz, None], row[nz, None]))
    if not memo:
        memo[(0,) * dim] = (np.zeros(1, dtype=np.int64), np.ones(1, dtype=complex))

    def get(alpha):
        got = memo.get(alpha)
        if got is not None:
            return got
        i = max(k for k in range(dim) if alpha[k] > 0)
        beta = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
        keys, coeffs = get(beta)
        shifts, weights = steps[i]
        parts_k = [(shifts + keys).ravel(), keys]
        parts_c = [(weights * coeffs).ravel(), shift[i] * coeffs]
        for j in range(dim):
            if beta[j]:
                g_keys, g_coeffs = get(beta[:j] + (beta[j] - 1,) + beta[j + 1:])
                parts_k.append(g_keys)
                parts_c.append((Sigma[i, j] * beta[j]) * g_coeffs)
        memo[alpha] = val = merge(np.concatenate(parts_k), np.concatenate(parts_c))
        return val

    return {a: get(tuple(a)) for a in needed}


def reference_compose(ctx, P1, P2, mu_memo, mv_memo):
    """`compose` with a Python loop over kappa and two merges per kappa."""
    d, bits = ctx.d, ctx.bits
    if P1.is_zero() or P2.is_zero():
        return Poly(d)
    mv = reference_moments_poly(ctx.G_vv, *ctx._v_form, bits, P2.terms, mv_memo)
    keys, coeffs = merge(np.concatenate([mv[delta][0] for delta in P2.terms]),
                         np.concatenate([c2 * mv[delta][1] for delta, c2 in P2.terms.items()]))
    z_bits = bits * d
    kappas, starts = np.unique(keys >> z_bits, return_index=True)
    bounds = np.append(starts, len(keys))
    z_keys = keys & ((1 << z_bits) - 1)
    gammas, c1s = list(P1.terms), list(P1.terms.values())
    kappa_exps = unpack(kappas, d, bits)
    fits = (np.array(gammas)[None, :, :] >= kappa_exps[:, None, :]).all(axis=2)
    groups = []
    for kappa, lo, hi, row in zip(kappa_exps.tolist(), bounds[:-1], bounds[1:], fits):
        terms = []
        for j in np.flatnonzero(row).tolist():
            w = c1s[j]
            for g, k in zip(gammas[j], kappa):
                w *= math.perm(g, k)
            terms.append((tuple(map(operator.sub, gammas[j], kappa)), w))
        if terms:
            groups.append((lo, hi, terms))
    needed = {e for _, _, terms in groups for e, _ in terms}
    mu = reference_moments_poly(ctx.G_uu, *ctx._u_form, bits, needed, mu_memo)
    out_keys, out_coeffs = [], []
    for lo, hi, terms in groups:
        psi_keys, psi_coeffs = merge(np.concatenate([mu[e][0] for e, _ in terms]),
                                     np.concatenate([w * mu[e][1] for e, w in terms]))
        k, c = merge((z_keys[lo:hi, None] + psi_keys[None, :]).ravel(),
                     (coeffs[lo:hi, None] * psi_coeffs[None, :]).ravel())
        out_keys.append(k)
        out_coeffs.append(c)
    if not out_keys:
        return Poly(d)
    return Poly.from_packed(d, bits, *merge(np.concatenate(out_keys), np.concatenate(out_coeffs)))


def assert_same_tables(got, want):
    assert got.keys() == want.keys()
    for alpha, (keys, coeffs) in want.items():
        assert np.array_equal(got[alpha][0], keys), alpha
        assert got[alpha][1].tobytes() == coeffs.tobytes(), alpha


def assert_same_poly(got, want):
    assert list(got.terms) == list(want.terms)
    assert (np.array(list(got.terms.values()), dtype=complex).tobytes()
            == np.array(list(want.terms.values()), dtype=complex).tobytes())


def assert_same_compositions(f, g):
    """Every Gaussian term pair of f * g composes as the reference does, and
    leaves the same memo tables."""
    for t1 in f.terms:
        for t2 in g.terms:
            args = (f.space.n_dof, f.space.hbar, t1.expo.A, t1.expo.b, t2.expo.A, t2.expo.b)
            ctx, ref = CompositionContext(*args), CompositionContext(*args)
            got = ctx.compose(t1.poly, t2.poly)
            assert not got.is_zero()
            assert_same_poly(got, reference_compose(ref, t1.poly, t2.poly, ref._mu_memo, ref._mv_memo))
            assert_same_tables(ctx._mu_memo, ref._mu_memo)
            assert_same_tables(ctx._mv_memo, ref._mv_memo)


@pytest.mark.parametrize("hbar", [1e-3, 1.0, 100.0])
@pytest.mark.parametrize("a, b", [((3, 3), (3, 0)), ((6, 6), (1, 0))], ids=["F33*F30", "F66*F10"])
def test_dho_pairs_compose_as_the_reference(a, b, hbar):
    space = VarSpace(2, hbar)
    assert_same_compositions(dho_f(*a, "+", space), dho_f(*b, "+", space))


@pytest.mark.parametrize("a, b", [(12, 12), (6, 4)], ids=["W12*W12", "W6*W4"])
def test_wigner_pairs_compose_as_the_reference(a, b):
    space = VarSpace(1, 1.0)
    assert_same_compositions(oscillator_wigner(a, space), oscillator_wigner(b, space))


def random_term_pair(rng, n_dof, terms, top):
    d = 2 * n_dof
    out = []
    for _ in range(2):
        R, S = rng.normal(size=(d, d)), rng.normal(size=(d, d))
        A = R.T @ R + 0.4 * np.eye(d) + 0.35j * (S + S.T)
        b = rng.normal(size=d) + 1j * rng.normal(size=d)
        poly = Poly(d, {tuple(rng.integers(0, top, size=d)): complex(*rng.normal(size=2))
                        for _ in range(terms)})
        out.append((A, b, poly))
    return out


@pytest.mark.parametrize("n_dof, top", [(1, 7), (2, 3)])
def test_random_gaussian_pairs_compose_as_the_reference(n_dof, top):
    rng = np.random.default_rng(41 + n_dof)
    for _ in range(4):
        (A1, b1, P1), (A2, b2, P2) = random_term_pair(rng, n_dof, 6, top)
        args = (n_dof, 1.0, A1, b1, A2, b2)
        ctx, ref = CompositionContext(*args), CompositionContext(*args)
        assert_same_poly(ctx.compose(P1, P2), reference_compose(ref, P1, P2, ref._mu_memo, ref._mv_memo))
        assert_same_tables(ctx._mu_memo, ref._mu_memo)
        assert_same_tables(ctx._mv_memo, ref._mv_memo)


def test_second_composition_reuses_the_memo():
    rng = np.random.default_rng(43)
    (A1, b1, P1), (A2, b2, P2) = random_term_pair(rng, 2, 5, 4)
    Q1 = P1 + Poly(4, {(3, 1, 0, 1): 0.5 - 1j, (0, 0, 2, 2): 2.0})
    Q2 = P2 + Poly(4, {(1, 1, 1, 1): -1.5j})
    args = (2, 1.0, A1, b1, A2, b2)
    ctx, ref = CompositionContext(*args), CompositionContext(*args)
    # Q1 and Q2 hold every term of P1 and P2: the later calls start from
    # memos that hold part of what they need
    for F, G in ((P1, P2), (Q1, Q2), (P1, Q2)):
        assert_same_poly(ctx.compose(F, G), reference_compose(ref, F, G, ref._mu_memo, ref._mv_memo))
        assert_same_tables(ctx._mu_memo, ref._mu_memo)
        assert_same_tables(ctx._mv_memo, ref._mv_memo)


def test_table_that_cancels_to_empty():
    # E[z0 z1] = mu1 E[z0] + Sigma10 = 3 * 2 - 6 = 0: an empty table among the
    # nonempty ones of degree 2, and a parent of the higher ones
    Sigma = np.array([[1.0, -6.0], [-6.0, 1.0]], dtype=complex)
    lin, shift = np.zeros((2, 1), dtype=complex), np.array([2.0, 3.0], dtype=complex)
    needed = list(multi_indices(2, 5))
    got = moments_poly(Sigma, lin, shift, 31, needed, {})
    assert len(got[(1, 1)][0]) == 0 and len(got[(2, 0)][0]) == 1
    assert_same_tables(got, reference_moments_poly(Sigma, lin, shift, 31, needed, {}))


def test_keys_in_the_top_fields():
    # N = 1 packs the v-tables' four variables (x, p, u_x, u_p) in 15 bits
    # each, u_p in bits 45-59: P2's high powers of p put keys there, and
    # P1's high powers make kappa large
    space = VarSpace(1, 1.0)
    (A1, b1, _), (A2, b2, _) = random_term_pair(np.random.default_rng(47), 1, 1, 2)
    P1 = Poly(2, {(2, 14): 1.0, (0, 16): -0.5j, (5, 9): 0.25})
    P2 = Poly(2, {(0, 16): 1.0 + 1j, (1, 15): 2.0, (3, 11): -1.0})
    ctx = CompositionContext(1, space.hbar, A1, b1, A2, b2)
    ref = CompositionContext(1, space.hbar, A1, b1, A2, b2)
    assert_same_poly(ctx.compose(P1, P2), reference_compose(ref, P1, P2, ref._mu_memo, ref._mv_memo))
    assert max(int(k.max()) for k, _ in ctx._mv_memo.values()) >> 45 >= 8
    assert_same_tables(ctx._mv_memo, ref._mv_memo)


def test_table_batches_fit_int64(monkeypatch):
    # at N = 3 a v-table's keys take 12 fields of 5 bits, so a degree-4 batch
    # holds at most 2**(63 - 55 - 3) = 32 tables; without the entry cap that
    # bound alone splits the 126 tables of degree 4
    monkeypatch.setattr(gausspoly, "_BATCH_ENTRIES", 1 << 40)
    (A1, b1, _), (A2, b2, _) = random_term_pair(np.random.default_rng(53), 3, 1, 2)
    ctx = CompositionContext(3, 1.0, A1, b1, A2, b2)
    needed = list(multi_indices(6, 4))
    got = moments_poly(ctx.G_vv, *ctx._v_form, ctx.bits, needed, {})
    assert_same_tables(got, reference_moments_poly(ctx.G_vv, *ctx._v_form, ctx.bits, needed, {}))

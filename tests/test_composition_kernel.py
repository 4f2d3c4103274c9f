"""The batched Gaussian composition kernel gives the table-by-table results
bit for bit.

`moments_poly` builds its tables a total degree at a time, a degree to a
merge, and skips the parts of the recursion whose weight is exactly zero;
`CompositionContext.compose` forms every kappa term in segmented merges.
Both keep each coefficient's order of summation, so every moment table and
every product must equal, bit for bit, what the recursions they replaced
give.  Those recursions are kept here as references.  A skipped part adds
only zeros, so the memo holds a subset of the reference's tables: the ones
that nonzero parts read.  The memos of one sparsity pattern share a plan,
whose tables keep every key a part reaches, so an entry that cancels to
exactly 0 stays in the memo where the reference's merge drops it.
"""

import json
import math
import operator
import subprocess
import sys
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from mqds import gausspoly
from mqds.algebra import QGFunction, QGTerm, QuadExponent, VarSpace, gaussian_test
from mqds.gausspoly import CompositionContext, MomentMemo, _branch_sqrt_det, moments_poly, sym
from mqds.models import dho_f, oscillator_wigner
from mqds.poly import Poly, merge, multi_indices, pack, packed_bits, unpack
from mqds.star import star


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
    """`compose` with a Python loop over kappa and two merges per kappa, and
    the u-block tables it needs."""
    d, bits = ctx.d, ctx.bits
    if P1.is_zero() or P2.is_zero():
        return Poly(d), set()
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
        return Poly(d), needed
    keys, coeffs = merge(np.concatenate(out_keys), np.concatenate(out_coeffs))
    return Poly.from_packed(d, pack(unpack(keys, d, bits), packed_bits(d)), coeffs), needed


def memo_tables(memo, dim):
    """The tables a `MomentMemo` holds, keyed by exponent tuple: the keys and
    coefficients its index places them at."""
    alphas, starts, sizes = memo.index.tolist()
    exps = unpack(np.array(alphas, dtype=np.int64), dim, packed_bits(dim)).tolist()
    return {tuple(e): (memo.keys[s:s + n], memo.coeffs[s:s + n]) for e, s, n in zip(exps, starts, sizes)}


def nonzero(keys, coeffs):
    """A table without its entries that cancel to exactly 0, which the
    plan keeps and the reference's merge drops."""
    keep = coeffs != 0
    return keys[keep], coeffs[keep]


def split_tables(result, needed):
    """`moments_poly`'s concatenated tables, keyed by exponent tuple."""
    keys, coeffs, sizes = result
    ends = np.cumsum(sizes).tolist()
    return {tuple(a): (keys[e - n:e], coeffs[e - n:e]) for a, n, e in zip(needed, sizes.tolist(), ends)}


def assert_same_tables(memo, want, needed):
    """Every table the memo holds equals the reference's bit for bit, but for
    exact zeros, every needed table is there, and the memo holds no table
    the reference lacks."""
    got = memo_tables(memo, len(next(iter(want))))
    assert got.keys() <= want.keys()
    assert {tuple(a) for a in needed} <= got.keys()
    for alpha, table in got.items():
        keys, coeffs = nonzero(*table)
        assert np.array_equal(keys, want[alpha][0]), alpha
        assert coeffs.tobytes() == want[alpha][1].tobytes(), alpha


def assert_reference_moments(result, form, bits, needed, ref):
    """A `moments_poly` result holds the reference's tables for (Sigma,
    lin, shift) = form, but for exact zeros; the reference fills `ref`."""
    got = split_tables(result, needed)
    want = reference_moments_poly(*form, bits, needed, ref)
    for alpha in map(tuple, needed):
        keys, coeffs = nonzero(*got[alpha])
        assert np.array_equal(keys, want[alpha][0]), alpha
        assert coeffs.tobytes() == want[alpha][1].tobytes(), alpha


def assert_same_moments(Sigma, lin, shift, bits, needed):
    """`moments_poly` on a fresh memo returns and keeps the reference's tables."""
    memo, ref, form = MomentMemo(), {}, (Sigma, lin, shift)
    assert_reference_moments(moments_poly(*form, bits, needed, memo), form, bits, needed, ref)
    assert_same_tables(memo, ref, needed)
    return memo, ref


def assert_same_poly(got, want):
    assert list(got.terms) == list(want.terms)
    assert (np.array(list(got.terms.values()), dtype=complex).tobytes()
            == np.array(list(want.terms.values()), dtype=complex).tobytes())


def assert_same_composition(ctx, P1, P2, mu_ref, mv_ref):
    """ctx.compose(P1, P2) equals the reference bit for bit, and so does
    every table its memos hold."""
    want, needed = reference_compose(ctx, P1, P2, mu_ref, mv_ref)
    got = ctx.compose(P1, P2)
    assert_same_poly(got, want)
    assert_same_tables(ctx._mu_memo, mu_ref, needed)
    assert_same_tables(ctx._mv_memo, mv_ref, P2.terms)
    return got


def natural_units(space, term):
    """A term's exponent and prefactor in w = z / sqrt(hbar), as `star` composes them."""
    unit = math.sqrt(space.hbar)
    return space.hbar * term.expo.A, unit * term.expo.b, term.poly.rescaled(unit)


def assert_same_compositions(f, g):
    """Every Gaussian term pair of f * g, in natural units, composes as the
    reference does, and leaves tables the reference also builds."""
    for t1 in f.terms:
        for t2 in g.terms:
            (A1, b1, P1), (A2, b2, P2) = natural_units(f.space, t1), natural_units(f.space, t2)
            ctx = CompositionContext(f.space.n_dof, A1, b1, A2, b2)
            assert not assert_same_composition(ctx, P1, P2, {}, {}).is_zero()


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


def random_moment_form(rng, dim, nw):
    """A dense (Sigma, lin, shift): every weight of the recursion is live."""
    R = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (R @ R.T + np.eye(dim), rng.normal(size=(dim, nw)) + 1j * rng.normal(size=(dim, nw)),
            rng.normal(size=dim) + 1j * rng.normal(size=dim))


@pytest.mark.parametrize("n_dof, top", [(1, 7), (2, 3)])
def test_random_gaussian_pairs_compose_as_the_reference(n_dof, top):
    rng = np.random.default_rng(41 + n_dof)
    for _ in range(4):
        (A1, b1, P1), (A2, b2, P2) = random_term_pair(rng, n_dof, 6, top)
        assert_same_composition(CompositionContext(n_dof, A1, b1, A2, b2), P1, P2, {}, {})


def test_dense_random_pair_prunes_nothing():
    # random exponents give a dense covariance and nonzero means: no weight
    # is zero, so the memos hold every table the reference walk visits
    (A1, b1, P1), (A2, b2, P2) = random_term_pair(np.random.default_rng(59), 2, 6, 3)
    ctx, mu_ref, mv_ref = CompositionContext(2, A1, b1, A2, b2), {}, {}
    assert np.all(ctx.G_uu != 0) and np.all(ctx.G_vv != 0)
    assert_same_composition(ctx, P1, P2, mu_ref, mv_ref)
    assert memo_tables(ctx._mu_memo, 4).keys() == mu_ref.keys()
    assert memo_tables(ctx._mv_memo, 4).keys() == mv_ref.keys()


def test_second_composition_reuses_the_memo():
    rng = np.random.default_rng(43)
    (A1, b1, P1), (A2, b2, P2) = random_term_pair(rng, 2, 5, 4)
    Q1 = P1 + Poly(4, {(3, 1, 0, 1): 0.5 - 1j, (0, 0, 2, 2): 2.0})
    Q2 = P2 + Poly(4, {(1, 1, 1, 1): -1.5j})
    ctx, mu_ref, mv_ref = CompositionContext(2, A1, b1, A2, b2), {}, {}
    # Q1 and Q2 hold every term of P1 and P2: the later calls start from
    # memos that hold part of what they need
    for F, G in ((P1, P2), (Q1, Q2), (P1, Q2)):
        assert_same_composition(ctx, F, G, mu_ref, mv_ref)


def test_table_that_cancels_to_empty():
    # E[z0 z1] = mu1 E[z0] + Sigma10 = 3 * 2 - 6 = 0: an empty table among the
    # nonempty ones of degree 2, and a parent of the higher ones
    Sigma = np.array([[1.0, -6.0], [-6.0, 1.0]], dtype=complex)
    lin, shift = np.zeros((2, 1), dtype=complex), np.array([2.0, 3.0], dtype=complex)
    needed = list(multi_indices(2, 5))
    got = split_tables(moments_poly(Sigma, lin, shift, 31, needed, MomentMemo()), needed)
    # the plan keeps the key that cancels, with coefficient exactly 0
    assert got[(1, 1)][0].tolist() == [0] and got[(1, 1)][1].tolist() == [0j]
    assert len(got[(2, 0)][0]) == 1
    assert_same_moments(Sigma, lin, shift, 31, needed)


def test_constant_mean_without_linear_terms():
    # mean 1 is the constant 0.5 - 2j (lin row 1 is zero): its tables gain
    # the constant part only, and mean 0 has no constant part at all
    Sigma = np.array([[1.5, 0.25j], [0.25j, 0.75]], dtype=complex)
    lin = np.array([[1.0, -0.5j, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
    shift = np.array([0.0, 0.5 - 2j], dtype=complex)
    needed = list(multi_indices(2, 6))
    memo, ref = assert_same_moments(Sigma, lin, shift, 21, needed)
    assert memo_tables(memo, 2).keys() == ref.keys()


def test_covariance_with_a_zero_row():
    # Sigma's row and column 1 are exactly zero: z1 has no spread, so no
    # table reads beta - e1 through Sigma, and the walk skips what only
    # those parts would read
    Sigma = np.array([[2.0, 0.0, 0.5j], [0.0, 0.0, 0.0], [0.5j, 0.0, 1.0]], dtype=complex)
    lin = np.array([[0.0, 1.0], [1.0, -1.0j], [0.0, 0.0]], dtype=complex)
    shift = np.array([0.0, 0.0, 1.0 + 1j], dtype=complex)
    needed = [(2, 3, 1), (0, 4, 2), (3, 0, 3), (1, 1, 1), (0, 0, 0), (4, 1, 0)]
    memo, ref = assert_same_moments(Sigma, lin, shift, 31, needed)
    assert len(memo) < len(ref)


def test_keys_in_the_top_fields():
    # N = 1 packs the v-tables' four variables (x, p, u_x, u_p) in 15 bits
    # each, u_p in bits 45-59: P2's high powers of p put keys there, and
    # P1's high powers make kappa large
    (A1, b1, _), (A2, b2, _) = random_term_pair(np.random.default_rng(47), 1, 1, 2)
    P1 = Poly(2, {(2, 14): 1.0, (0, 16): -0.5j, (5, 9): 0.25})
    P2 = Poly(2, {(0, 16): 1.0 + 1j, (1, 15): 2.0, (3, 11): -1.0})
    ctx = CompositionContext(1, A1, b1, A2, b2)
    assert_same_composition(ctx, P1, P2, {}, {})
    memo = ctx._mv_memo
    assert int(memo.keys[:memo.size].max()) >> 45 >= 8


def test_table_batches_fit_int64():
    # at N = 3 a v-table's keys take 12 fields of 5 bits, so a merge of
    # degree-4 tables holds at most 2**(63 - 55 - 3) - 1 = 31 of them: the
    # int64 bound splits the 126 tables of degree 4
    (A1, b1, _), (A2, b2, _) = random_term_pair(np.random.default_rng(53), 3, 1, 2)
    ctx = CompositionContext(3, A1, b1, A2, b2)
    assert_same_moments(ctx.G_vv, *ctx._v_form, ctx.bits, list(multi_indices(6, 4)))


def test_top_product_builds_only_the_tables_nonzero_parts_read():
    # work guard: in F66 * F66 the dho block means have no constant part and
    # the covariances two nonzero entries per row, so the walk that skips
    # zero weights builds 6835 u-tables and 2365 v-tables; visiting every
    # dependency, as the reference does, builds 7160 and 3867
    space = VarSpace(2, 1.0)
    (t,) = dho_f(6, 6, "+", space).terms
    ctx = CompositionContext(2, t.expo.A, t.expo.b, t.expo.A, t.expo.b)
    ctx.compose(t.poly, t.poly)
    assert (len(ctx._mu_memo), len(ctx._mv_memo)) == (6835, 2365)


# -- plans shared by sparsity pattern -----------------------------------------

def test_contexts_with_one_pattern_share_a_plan():
    # random exponents give dense blocks: every weight is live in both
    # contexts, so their memos share the plans, and each context's tables
    # are its own numbers, as the reference builds them
    rng = np.random.default_rng(67)
    (A1, b1, P1), (A2, b2, P2) = random_term_pair(rng, 1, 5, 5)
    (B1, c1, _), (B2, c2, _) = random_term_pair(rng, 1, 5, 5)
    first, second = CompositionContext(1, A1, b1, A2, b2), CompositionContext(1, B1, c1, B2, c2)
    for ctx in (first, second):
        assert_same_composition(ctx, P1, P2, {}, {})
    assert first._mu_memo.plan is second._mu_memo.plan
    assert first._mv_memo.plan is second._mv_memo.plan
    # the second memo replays the first one's program: the same keys, in a
    # copy of its own, and its own numbers
    one, two = first._mv_memo, second._mv_memo
    assert two.keys[:two.size].tobytes() == one.keys[:one.size].tobytes()
    assert not np.shares_memory(one.keys, two.keys)
    assert not np.array_equal(one.coeffs[:one.size], two.coeffs[:two.size])
    # a third context's first request shares the first one's low-degree
    # tables and differs at the top: it builds its own tables from the root,
    # and the first context's stay as they were
    (C1, d1, _), (C2, d2, _) = random_term_pair(rng, 1, 5, 5)
    Q2 = P2 + Poly(2, {(0, P2.degree() + 1): 0.5 - 1j})
    third = CompositionContext(1, C1, d1, C2, d2)
    assert_same_composition(third, P1, Q2, {}, {})
    assert third._mv_memo.plan is first._mv_memo.plan
    assert len(third._mv_memo) > len(first._mv_memo)
    assert_same_composition(first, P1, P2, {}, {})


def test_replay_after_the_compiling_memo_grew():
    # memo A compiles a first request, which the plan keeps with a view of
    # A's keys, then grows in place by a later request; B replays the kept
    # program and takes another later request; C replays it too.  Every
    # memo holds the reference's tables, and no two share a buffer
    rng = np.random.default_rng(79)
    dim, nw, bits = 2, 3, 13
    first = [(2, 1), (0, 3)]
    memos = []
    for requests in ((first, [(3, 1), (0, 4)]), (first, [(4, 0), (2, 2)]), (first,)):
        form, memo, ref = random_moment_form(rng, dim, nw), MomentMemo(), {}
        for needed in requests:
            assert_reference_moments(moments_poly(*form, bits, needed, memo), form, bits, needed, ref)
            assert_same_tables(memo, ref, needed)
        memos.append(memo)
    a, b, c = memos
    assert a.plan is b.plan is c.plan
    kept = a.plan.programs[np.array(first, dtype=np.int64).tobytes()]
    assert np.shares_memory(kept.keys, a.keys) and a.size > len(kept.keys)
    assert b.size > c.size == len(kept.keys)
    for one, two in ((a, b), (a, c), (b, c)):
        assert not np.shares_memory(one.keys, two.keys)
        assert not np.shares_memory(one.coeffs, two.coeffs)


def test_cancellation_keeps_a_zero_entry():
    # mu = (w + 1, w - 1) and Sigma_01 = 1: E[z0 z1] = mu1 E[z0] + Sigma_10
    # = (w - 1)(w + 1) + 1 = w^2: its constant and linear terms cancel to 0,
    # and the plan keeps them; the products that read it are still the
    # reference's, bit for bit
    (A1, b1, P1), (A2, b2, _) = random_term_pair(np.random.default_rng(71), 1, 4, 4)
    ctx = CompositionContext(1, A1, b1, A2, b2)
    lin = np.zeros((2, 2), dtype=complex)
    lin[:, 0] = 1.0
    ctx._u_form = (lin, np.array([1.0, -1.0], dtype=complex))
    ctx.G_uu = np.array([[0.5, 1.0], [1.0, 2.0]], dtype=complex)
    P2 = Poly(2, {(1, 1): 1.0, (2, 2): 0.5j, (0, 3): -2.0})
    for F in (P1, Poly(2, {(2, 2): 1.0, (1, 3): 1.5})):
        assert_same_composition(ctx, F, P2, {}, {})
    keys, coeffs = memo_tables(ctx._mu_memo, 2)[(1, 1)]
    assert keys.tolist() == [0, 1, 2] and coeffs.tolist() == [0j, 0j, 1 + 0j]


def test_plan_dies_with_its_last_context():
    # a u-block pattern of its own (lin[1, 1], shift[0] and a unit
    # covariance), so that no other memo keeps its plan
    (A1, b1, P1), (A2, b2, P2) = random_term_pair(np.random.default_rng(73), 1, 3, 3)
    lin = np.zeros((2, 2), dtype=complex)
    lin[1, 1] = 0.5
    contexts = [CompositionContext(1, A1, b1, A2, b2) for _ in range(2)]
    for ctx in contexts:
        ctx._u_form, ctx.G_uu = (lin, np.array([2.0, 0.0], dtype=complex)), np.eye(2, dtype=complex)
        ctx.compose(P1, P2)
    plan = weakref.ref(contexts[0]._mu_memo.plan)
    assert contexts[1]._mu_memo.plan is plan()
    pattern = next(key for key, value in gausspoly._PLANS.items() if value is plan())
    del ctx, contexts[0]
    assert plan() is not None
    del contexts[0]
    assert plan() is None and pattern not in gausspoly._PLANS


# -- requests the memo holds, and the context cache ---------------------------

def test_held_tables_answer_without_compiling(monkeypatch):
    # a memo that holds every requested table answers from its index: the
    # request compiles nothing, in any order and with repeats, and its
    # sizes are read-only like a compiled request's
    form, bits = random_moment_form(np.random.default_rng(89), 2, 3), 13
    memo, ref = MomentMemo(), {}
    moments_poly(*form, bits, list(multi_indices(2, 4)), memo)
    held = len(memo)

    def no_compile(*args):
        raise AssertionError("compiled a request the memo holds")

    monkeypatch.setattr(gausspoly, "_compile", no_compile)
    for needed in ([(4, 0), (1, 2), (0, 0)], [(2, 2), (2, 2), (0, 1), (3, 1)]):
        result = moments_poly(*form, bits, needed, memo)
        assert not result[2].flags.writeable
        assert_reference_moments(result, form, bits, needed, ref)
    assert len(memo) == held
    # the packed-degree check still guards a request that would alias a held table
    with pytest.raises(ValueError):
        moments_poly(*form, bits, [(1 << 31, 0)], memo)


def test_request_lacking_tables_compiles(monkeypatch):
    # one missing table sends the whole request to `_compile`, which builds
    # only what the memo lacks
    form, bits = random_moment_form(np.random.default_rng(97), 2, 3), 13
    memo, ref, first = MomentMemo(), {}, list(multi_indices(2, 3))
    assert_reference_moments(moments_poly(*form, bits, first, memo), form, bits, first, ref)
    calls = []
    compile_ = gausspoly._compile
    monkeypatch.setattr(gausspoly, "_compile", lambda *args: calls.append(1) or compile_(*args))
    needed = [(1, 1), (3, 2), (0, 2)]
    result = moments_poly(*form, bits, needed, memo)
    assert len(calls) == 1 and not result[2].flags.writeable
    assert_reference_moments(result, form, bits, needed, ref)
    assert_same_tables(memo, ref, needed)


def test_family_products_do_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call (numpy 2.4), about 5 ms
    # inside a fresh process's first product; the moment walk does without it
    code = ("import sys\n"
            "from mqds import VarSpace, dho_f, oscillator_wigner, star\n"
            "one, two = VarSpace(1, 1.0), VarSpace(2, 1.0)\n"
            "star(oscillator_wigner(3, one), oscillator_wigner(2, one))\n"
            "star(dho_f(2, 1, '+', two), dho_f(1, 1, '+', two))\n"
            "print('numpy.ma' in sys.modules)\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_cache_keeps_the_context_in_use(monkeypatch):
    # 256 other contexts pass through the cache while one is used between
    # each: the cache never holds more than 128, it evicts the others, and
    # the context in use stays, with products bit-identical to a fresh one's
    cache = {}
    monkeypatch.setattr(gausspoly, "_CTX_CACHE", cache)
    rng = np.random.default_rng(83)
    (A1, b1, P1), (A2, b2, P2) = random_term_pair(rng, 1, 5, 4)
    kept = gausspoly.composition_context(1, A1, b1, A2, b2)
    want = kept.compose(P1, P2)
    others = []
    for _ in range(256):
        (B1, c1, _), (B2, c2, _) = random_term_pair(rng, 1, 1, 2)
        others.append(gausspoly.composition_context(1, B1, c1, B2, c2))
        assert len(cache) <= 128
        assert gausspoly.composition_context(1, A1, b1, A2, b2) is kept
    assert len(cache) == 128
    assert set(map(id, cache.values())) == set(map(id, [kept, *others[-127:]]))
    assert_same_poly(kept.compose(P1, P2), want)
    assert_same_poly(CompositionContext(1, A1, b1, A2, b2).compose(P1, P2), want)


# -- natural units -------------------------------------------------------------

def direct_context(n_dof, hbar, A1, b1, A2, b2):
    """The composition's data computed at hbar itself, kappa = 2i/hbar, with
    the operations `CompositionContext` uses at hbar = 1: what `compose`
    and `reference_compose` read, and A3, b3, c3_base and pref."""
    d = 2 * n_dof
    kappa = 2j / hbar
    J = np.zeros((d, d))
    J[:n_dof, n_dof:] = np.eye(n_dof)
    J[n_dof:, :n_dof] = -np.eye(n_dof)
    AA = np.zeros((2 * d, 2 * d), dtype=complex)
    AA[:d, :d], AA[d:, d:] = A1, A2
    AA[:d, d:], AA[d:, :d] = -kappa * J, -kappa * J.T
    G = np.linalg.inv(AA)
    B = np.zeros((2 * d, d), dtype=complex)
    B[:d, :], B[d:, :] = -kappa * J, kappa * J
    beta0 = np.concatenate([b1, b2])
    T, s_vec = G @ B, G @ beta0
    return SimpleNamespace(
        d=d, bits=packed_bits(2 * d), G_uu=G[:d, :d], G_vv=G[d:, d:],
        _u_form=(T[:d, :], s_vec[:d]), _v_form=(np.concatenate([T[d:, :], G[d:, :d]], axis=1), s_vec[d:]),
        A3=sym(-B.T @ G @ B), b3=B.T @ (G @ beta0), c3_base=0.5 * beta0 @ (G @ beta0),
        pref=(2.0 / hbar) ** d / _branch_sqrt_det(np.linalg.eigvals(AA)))


def direct_star(f, g):
    """f * g for Gaussian terms, every term pair composed at hbar itself by
    the table-by-table reference."""
    out = []
    for t1 in f.terms:
        for t2 in g.terms:
            ctx = direct_context(f.space.n_dof, f.space.hbar, t1.expo.A, t1.expo.b, t2.expo.A, t2.expo.b)
            poly, _ = reference_compose(ctx, t1.poly, t2.poly, {}, {})
            out.append(QGTerm(poly.scaled(ctx.pref),
                              QuadExponent(ctx.A3, ctx.b3, ctx.c3_base + t1.expo.c + t2.expo.c)))
    return QGFunction(f.space, out)


FAMILY_PRODUCTS = {
    "W4*W6": (1, lambda sp: (oscillator_wigner(4, sp), oscillator_wigner(6, sp))),
    "W6*W6": (1, lambda sp: (oscillator_wigner(6, sp), oscillator_wigner(6, sp))),
    "F66*F10": (2, lambda sp: (dho_f(6, 6, "+", sp), dho_f(1, 0, "+", sp))),
    "F21*F21": (2, lambda sp: (dho_f(2, 1, "+", sp), dho_f(2, 1, "+", sp))),
}


@pytest.mark.parametrize("name", FAMILY_PRODUCTS)
def test_one_context_serves_every_hbar(name, monkeypatch):
    # the members are hbar^-N w(z / sqrt(hbar)): in natural units their
    # exponents do not depend on hbar, so the four products share one
    # context, and each agrees with the composition done at hbar itself.
    # Scaled as the orthogonality check scales them: (2 pi hbar)^N f*g is
    # f or 0, so that the vanishing products are measured too
    cache = {}
    monkeypatch.setattr(gausspoly, "_CTX_CACHE", cache)
    n_dof, members = FAMILY_PRODUCTS[name]
    for hbar in (1e-3, 0.1, 10.0, 100.0):
        f, g = members(VarSpace(n_dof, hbar))
        gap = (star(f, g) - direct_star(f, g)).coeff_norm()
        assert (2 * math.pi * hbar) ** n_dof * gap <= 1e-13 * f.coeff_norm(), hbar
    assert len(cache) == 1


def test_fixed_width_gaussians_keep_their_own_context(monkeypatch):
    # a Gaussian whose width does not scale with hbar has natural exponents
    # of size hbar: at hbar = 1e-13 two widths 1e-6 apart still key two
    # contexts, and each product is its own
    cache = {}
    monkeypatch.setattr(gausspoly, "_CTX_CACHE", cache)
    space = VarSpace(1, 1e-13)
    g = gaussian_test(space, 0.5, center=[0.3, -0.2])
    for width in (1.0, 1.0 + 1e-6):
        f = gaussian_test(space, width)
        got = star(f, g)
        assert (got - direct_star(f, g)).coeff_norm() <= 1e-13 * got.coeff_norm(), width
    assert len(cache) == 2


def test_products_do_not_depend_on_the_cache_history(monkeypatch):
    # a context serves only the natural-unit exponents it was built from: the
    # shifted Gaussian of the orthogonality check has natural exponents that
    # differ in their last bits from one hbar to another, and star(W1, it) at
    # hbar = 0.5 is the same, bit for bit, whichever hbar filled the cache first
    def product(hbar):
        space, unit = VarSpace(1, hbar), math.sqrt(hbar)
        shifted = gaussian_test(space, 0.9 * unit, center=[0.7 * unit, -0.4 * unit])
        return json.dumps(star(oscillator_wigner(1, space), shifted).to_json_dict())

    monkeypatch.setattr(gausspoly, "_CTX_CACHE", {})
    want = product(0.5)
    for hbar in (1.0, 0.1, 10.0, 1e-3):
        monkeypatch.setattr(gausspoly, "_CTX_CACHE", {})
        product(hbar)
        assert product(0.5) == want, hbar


def random_function_pair(n_dof):
    (A1, b1, P1), (A2, b2, P2) = random_term_pair(np.random.default_rng(61), n_dof, 6, 3)
    space = VarSpace(n_dof, 1.0)
    return (QGFunction(space, [QGTerm(P1, QuadExponent(A1, b1))]),
            QGFunction(space, [QGTerm(P2, QuadExponent(A2, b2))]))


@pytest.mark.parametrize("pair", [
    lambda sp1, sp2: (oscillator_wigner(12, sp1), oscillator_wigner(12, sp1)),
    lambda sp1, sp2: (dho_f(6, 6, "+", sp2), dho_f(1, 0, "+", sp2)),
    lambda sp1, sp2: random_function_pair(2),
], ids=["W12*W12", "F66*F10", "random-N2"])
def test_hbar_one_skips_the_map(pair):
    # at hbar = 1 every factor of the map is 1 and it is skipped: the
    # product is, bit for bit, the composition done at hbar = 1 directly
    f, g = pair(VarSpace(1, 1.0), VarSpace(2, 1.0))
    got, want = star(f, g), direct_star(f, g)
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())

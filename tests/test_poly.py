import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mqds.algebra import QGFunction, QGTerm, QuadExponent, VarSpace
from mqds.poly import Poly, multi_factorial, multi_indices, packed_bits


def small_polys(dim=2, deg=3):
    coeff = st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False)
    expo = st.tuples(*([st.integers(0, deg)] * dim))
    return st.dictionaries(expo, coeff, max_size=5).map(lambda t: Poly(dim, t))


def value(p, z):
    """P(z), through the polynomial's function on the one-dof phase space."""
    return QGFunction.from_poly(VarSpace(1, 1.0), p).evaluate(z)


def diff(p, index):
    """d P / d z_index, through the derivative of P times the unit Gaussian."""
    return QGTerm(p, QuadExponent.zero(p.dim)).diff(index).poly


def test_zero_and_const():
    assert Poly(3).is_zero()
    assert Poly.const(2, 0.0).is_zero()
    p = Poly.const(2, 2.5)
    assert value(p, [7.0, -1.0]) == 2.5


@pytest.mark.parametrize("expo", [(0, 0, 0), (1,)])
def test_exponent_length_must_be_dim(expo):
    with pytest.raises(ValueError, match="not dim = 2"):
        Poly(2, {expo: 1.0})


def test_mul_matches_eval():
    rng = np.random.default_rng(0)
    a = Poly(2, {(1, 0): 2.0, (0, 2): -1.0 + 1j})
    b = Poly(2, {(1, 1): 3.0, (0, 0): 0.5})
    z = rng.normal(size=2)
    assert value(a.mul(b), z) == pytest.approx(value(a, z) * value(b, z))


def test_diff_monomial():
    p = Poly(2, {(2, 1): 1.0})          # x^2 p
    assert diff(p, 0).terms == {(1, 1): 2.0}
    assert diff(p, 1).terms == {(2, 0): 1.0}
    assert diff(diff(diff(p, 0), 0), 0).is_zero()


def test_affine_sub_rotation():
    # x^2 + p^2 is invariant under rotations
    p = Poly(2, {(2, 0): 1.0, (0, 2): 1.0})
    th = 0.37
    M = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    q = p.affine_sub(M)
    assert (q - p).max_abs_coeff() < 1e-14


def test_affine_sub_shift():
    p = Poly(1, {(2,): 1.0})
    q = p.affine_sub(np.eye(1), np.array([1.0]))   # (z+1)^2
    assert q.terms == {(0,): 1.0, (1,): 2.0, (2,): 1.0}


def test_canonical_order_graded_lex():
    p = Poly(2, {(0, 2): 1.0, (1, 0): 1.0, (0, 0): 1.0, (2, 0): 1.0})
    keys = [e for e, _ in p.canonical_items()]
    assert keys == [(0, 0), (1, 0), (0, 2), (2, 0)]


def test_multi_indices_count():
    # number of 2-variable multi-indices with |a| <= 3 is C(5,2) = 10
    assert len(list(multi_indices(2, 3))) == 10
    assert multi_factorial((3, 2)) == 12


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys())
def test_addition_commutes(a, b):
    assert ((a + b) - (b + a)).max_abs_coeff() == 0


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys())
def test_product_rule(a, b):
    lhs = diff(a.mul(b), 0)
    rhs = diff(a, 0).mul(b) + a.mul(diff(b, 0))
    scale = max(a.max_abs_coeff() * b.max_abs_coeff(), 1.0)
    assert (lhs - rhs).max_abs_coeff() <= 1e-12 * scale


# -- the dict loops the packed methods replaced, as references ------------------

def dict_mul(p, q):
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0j) + c1 * c2
    return out


def dict_affine_sub(p, M, shift):
    """Each term times the powers of its variables' linear forms, expanded one factor at a time."""
    out = {}
    for e, c in p.terms.items():
        acc = {(0,) * M.shape[1]: c}
        for i, k in enumerate(e):
            form = {tuple(np.eye(M.shape[1], dtype=int)[j]): M[i, j] for j in range(M.shape[1])}
            form[(0,) * M.shape[1]] = shift[i]
            for _ in range(k):
                acc = dict_mul(Poly(M.shape[1], acc), Poly(M.shape[1], form))
        for e2, v in acc.items():
            out[e2] = out.get(e2, 0j) + v
    return out


def assert_close(got, want, scale):
    for e in got.keys() | want.keys():
        assert abs(got.get(e, 0j) - want.get(e, 0j)) <= 1e-13 * scale, e


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys())
def test_mul_matches_the_dict_loop(a, b):
    scale = max(sum(map(abs, a.terms.values())) * sum(map(abs, b.terms.values())), 1.0)
    assert_close(a.mul(b).terms, dict_mul(a, b), scale)


@pytest.mark.parametrize("dim_out", [1, 2, 3])
def test_affine_sub_matches_the_dict_loop(dim_out):
    rng = np.random.default_rng(11 + dim_out)
    for _ in range(5):
        p = Poly(2, {tuple(int(k) for k in rng.integers(0, 4, size=2)): complex(*rng.normal(size=2))
                     for _ in range(6)})
        M = rng.normal(size=(2, dim_out)) + 1j * rng.normal(size=(2, dim_out))
        shift = rng.normal(size=2)
        scale = sum(map(abs, dict_affine_sub(Poly(2, {e: abs(c) for e, c in p.terms.items()}),
                                             np.abs(M), np.abs(shift)).values()))
        assert_close(p.affine_sub(M, shift).terms, dict_affine_sub(p, M, shift), scale)


# -- Poly.mul edge cases ---------------------------------------------------------

def test_mul_exact_cancellation():
    # (x + y)(x - y): the cross terms cancel exactly and are dropped
    p = Poly(2, {(1, 0): 1.0, (0, 1): 1.0})
    q = Poly(2, {(1, 0): 1.0, (0, 1): -1.0})
    assert p.mul(q).terms == {(2, 0): 1.0, (0, 2): -1.0}
    assert p.mul(p.scaled(0.0)).is_zero()


@pytest.mark.parametrize("dim, big", [(1, 1 << 62), (2, 1 << 30), (8, 100)])
def test_packing_overflow_takes_the_loop(dim, big):
    """A product past the packed field raises."""
    # each exponent fits its packed field, but the product's does not
    low = {(k,) + (1,) * (dim - 1): complex(k, 1) for k in range(20)}
    p = Poly(dim, {(big,) + (0,) * (dim - 1): 1.0, **low})
    q = Poly(dim, {(big,) + (1,) * (dim - 1): 3.0, **low})
    assert 2 * big >= 1 << packed_bits(dim)
    with pytest.raises(ValueError, match="packed"):
        p.mul(q)
    with pytest.raises(ValueError, match="packed"):
        Poly(dim, {(2 * big,) + (0,) * (dim - 1): 1.0})


def test_negative_exponents_take_the_loop():
    """Laurent exponents are outside the class: the constructor refuses them."""
    with pytest.raises(ValueError, match="packed field"):
        Poly(2, {(-1, 0): 1.0, (1, 1): 2.0})


@pytest.mark.parametrize("expo", [(0, -2), (1.5, 0), (1 << 31, 0), (1 << 70, 0), ("1", 0)])
def test_exponents_outside_the_fields_raise(expo):
    # negative, fractional, past the 31-bit field of 2 variables, or not a number
    with pytest.raises(ValueError, match="packed field"):
        Poly(2, {expo: 1.0, (1, 1): 2.0})

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mqds.algebra import QGTerm, QuadExponent
from mqds.poly import Poly, multi_factorial, multi_indices, packed_bits


def small_polys(dim=2, deg=3):
    coeff = st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False)
    expo = st.tuples(*([st.integers(0, deg)] * dim))
    return st.dictionaries(expo, coeff, max_size=5).map(lambda t: Poly(dim, t))


def diff(p, index):
    """d P / d z_index, through the derivative of P times the unit Gaussian."""
    return QGTerm(p, QuadExponent.zero(p.dim)).diff(index).poly


def test_zero_and_const():
    assert Poly(3).is_zero()
    assert Poly.const(2, 0.0).is_zero()
    p = Poly.const(2, 2.5)
    assert p.eval([7.0, -1.0]) == 2.5


@pytest.mark.parametrize("expo", [(0, 0, 0), (1,)])
def test_exponent_length_must_be_dim(expo):
    with pytest.raises(ValueError, match="not dim = 2"):
        Poly(2, {expo: 1.0})


def test_mul_matches_eval():
    rng = np.random.default_rng(0)
    a = Poly(2, {(1, 0): 2.0, (0, 2): -1.0 + 1j})
    b = Poly(2, {(1, 1): 3.0, (0, 0): 0.5})
    z = rng.normal(size=2)
    assert a.mul(b).eval(z) == pytest.approx(a.eval(z) * b.eval(z))


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


def test_embed():
    p = Poly(1, {(2,): 3.0})
    q = p.embed(3, [1])
    assert q.terms == {(0, 2, 0): 3.0}


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


# -- Poly.mul edge cases ---------------------------------------------------------

def test_mul_exact_cancellation():
    # (x + y)(x - y): the cross terms cancel exactly and are dropped
    p = Poly(2, {(1, 0): 1.0, (0, 1): 1.0})
    q = Poly(2, {(1, 0): 1.0, (0, 1): -1.0})
    assert p.mul(q).terms == {(2, 0): 1.0, (0, 2): -1.0}
    assert p.mul(p.scaled(0.0)).is_zero()


@pytest.mark.parametrize("dim, big", [(1, 1 << 62), (2, 1 << 30), (8, 100)])
def test_packing_overflow_takes_the_loop(dim, big):
    # each exponent fits its packed field, but the product's does not
    low = {(k,) + (1,) * (dim - 1): complex(k, 1) for k in range(20)}
    p = Poly(dim, {(big,) + (0,) * (dim - 1): 1.0, **low})
    q = Poly(dim, {(big,) + (1,) * (dim - 1): 3.0, **low})
    assert 2 * big >= 1 << packed_bits(dim)
    want = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            want[e] = want.get(e, 0j) + c1 * c2
    prod = p.mul(q)
    assert prod.terms[(2 * big,) + (1,) * (dim - 1)] == 3.0
    assert prod.terms == {e: c for e, c in want.items() if c != 0}


def test_negative_exponents_take_the_loop():
    p = Poly(2, {(-1, 0): 1.0, (1, 1): 2.0})
    assert p.mul(p).terms == {(-2, 0): 1.0, (0, 1): 4.0, (2, 2): 4.0}

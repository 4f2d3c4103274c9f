import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mqds.poly import (PACKED_MUL_MIN_PAIRS, Poly, _mul_loop, _mul_packed,
                       multi_factorial, multi_indices, packed_bits)


def small_polys(dim=2, deg=3):
    coeff = st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False)
    expo = st.tuples(*([st.integers(0, deg)] * dim))
    return st.dictionaries(expo, coeff, max_size=5).map(lambda t: Poly(dim, t))


def test_zero_and_const():
    assert Poly.zero(3).is_zero()
    assert Poly.const(2, 0.0).is_zero()
    p = Poly.const(2, 2.5)
    assert p.eval([7.0, -1.0]) == 2.5


def test_mul_matches_eval():
    rng = np.random.default_rng(0)
    a = Poly(2, {(1, 0): 2.0, (0, 2): -1.0 + 1j})
    b = Poly(2, {(1, 1): 3.0, (0, 0): 0.5})
    z = rng.normal(size=2)
    assert a.mul(b).eval(z) == pytest.approx(a.eval(z) * b.eval(z))


def test_diff_monomial():
    p = Poly(2, {(2, 1): 1.0})          # x^2 p
    assert p.diff(0).terms == {(1, 1): 2.0}
    assert p.diff(1).terms == {(2, 0): 1.0}
    assert p.diff(0).diff(0).diff(0).is_zero()


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
    lhs = a.mul(b).diff(0)
    rhs = a.diff(0).mul(b) + a.mul(b.diff(0))
    scale = max(a.max_abs_coeff() * b.max_abs_coeff(), 1.0)
    assert (lhs - rhs).max_abs_coeff() <= 1e-12 * scale


# -- packed product kernel -----------------------------------------------------

def exact_items(p):
    """Terms in order, coefficients as exact bit patterns."""
    return [(e, c.real.hex(), c.imag.hex()) for e, c in p.terms.items()]


@st.composite
def packed_operands(draw):
    """Two polynomials over 1-8 variables whose product just fits the packing:
    exponents are small or near half the field's top, and coefficients are
    either small integers (so that terms cancel exactly) or arbitrary."""
    dim = draw(st.integers(1, 8))
    half = ((1 << packed_bits(dim)) - 1) // 2
    expo = st.tuples(*[st.one_of(st.integers(0, 3), st.integers(half - 2, half))] * dim)
    coeff = st.one_of(st.sampled_from([1, -1, 2, -2, 1j, -1j, 1 + 1j]),
                      st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False))
    terms = st.dictionaries(expo, coeff, min_size=1, max_size=12)
    return Poly(dim, draw(terms)), Poly(dim, draw(terms))


@settings(max_examples=300, deadline=None)
@given(packed_operands())
def test_packed_mul_is_the_loop_bit_for_bit(operands):
    p, q = operands
    assert exact_items(_mul_packed(p, q)) == exact_items(_mul_loop(p, q))


def test_packed_mul_exact_cancellation():
    # (x + y)(x - y): the cross terms cancel exactly and are dropped
    p = Poly(2, {(1, 0): 1.0, (0, 1): 1.0})
    q = Poly(2, {(1, 0): 1.0, (0, 1): -1.0})
    assert exact_items(_mul_packed(p, q)) == exact_items(_mul_loop(p, q))
    assert _mul_packed(p, q).terms == {(2, 0): 1.0, (0, 2): -1.0}
    assert _mul_packed(p, p.scaled(0.0)).is_zero()


def test_mul_takes_packed_kernel_on_large_products():
    rng = np.random.default_rng(3)
    p = Poly(4, {e: complex(*rng.normal(size=2)) for e in multi_indices(4, 3)})
    q = Poly(4, {e: complex(*rng.normal(size=2)) for e in multi_indices(4, 2)})
    assert len(p.terms) * len(q.terms) >= PACKED_MUL_MIN_PAIRS
    assert exact_items(p.mul(q)) == exact_items(_mul_loop(p, q))


@pytest.mark.parametrize("dim, big", [(1, 1 << 62), (2, 1 << 30), (8, 100)])
def test_packing_overflow_takes_the_loop(dim, big):
    # each exponent fits its field, but the product's does not
    low = {(k,) + (1,) * (dim - 1): complex(k, 1) for k in range(20)}
    p = Poly(dim, {(big,) + (0,) * (dim - 1): 1.0, **low})
    q = Poly(dim, {(big,) + (1,) * (dim - 1): 3.0, **low})
    assert len(p.terms) * len(q.terms) >= PACKED_MUL_MIN_PAIRS
    assert _mul_packed(p, q) is None
    prod = p.mul(q)
    assert prod.terms[(2 * big,) + (1,) * (dim - 1)] == 3.0
    assert exact_items(prod) == exact_items(_mul_loop(p, q))


def test_negative_exponents_take_the_loop():
    p = Poly(2, {(-1, 0): 1.0, (1, 1): 2.0})
    assert _mul_packed(p, p) is None
    assert p.mul(p).terms == {(-2, 0): 1.0, (0, 1): 4.0, (2, 2): 4.0}

import math

import numpy as np
import pytest

from mqds.algebra import QGFunction, QGTerm, QuadExponent, VarSpace
from mqds.models import ModelId, dho_f, dho_g, ladder_set
from mqds.poly import Poly
from mqds.star import star


@pytest.fixture
def space():
    return VarSpace(1, 1.0)


@pytest.fixture
def space2():
    return VarSpace(2, 1.0)


def w0(space):
    """Oscillator ground-state function (1/pi hbar) e^{-(x^2+p^2)/hbar}."""
    h = space.hbar
    return QGFunction.from_exponent(space, (2.0 / h) * np.eye(2), coeff=1.0 / (math.pi * h))


def f0_plus(space):
    """(1/pi hbar) e^{-2ixp/hbar}."""
    h = space.hbar
    A = np.array([[0.0, 2j / h], [2j / h, 0.0]])
    return QGFunction.from_exponent(space, A, coeff=1.0 / (math.pi * h))


def random_gaussian(space, rng, scale=1.0):
    """Random strictly integrable poly x Gaussian over the given space."""
    d = space.dim
    R = rng.normal(size=(d, d))
    S = rng.normal(size=(d, d))
    A = R.T @ R + 0.4 * np.eye(d) + 0.35j * (S + S.T)
    b = rng.normal(size=d) + 1j * rng.normal(size=d)
    poly = Poly(d, {tuple(rng.integers(0, 3, size=d)): scale * complex(rng.normal(), rng.normal())
                    for _ in range(3)})
    if poly.is_zero():
        poly = Poly.const(d, 1.0)
    return QGFunction(space, [QGTerm(poly, QuadExponent(A, b))])


def random_polynomial(space, rng, deg=3):
    d = space.dim
    terms = {tuple(rng.integers(0, deg + 1, size=d)): complex(rng.normal(), rng.normal())
             for _ in range(4)}
    p = Poly(d, terms)
    if p.is_zero():
        p = Poly.const(d, 1.0)
    return QGFunction.from_poly(space, p)


def dho_ladder(family, n, m, space):
    """dho F^+_nm or G_nm by the ladder chains the closed forms replaced:
    F^+_nm = (a2)^n (a2*)^m * F_00 * (a1)^m (a1*)^n over its own integral,
    G_nm = (a2*)^n (a1*)^m * G_00 * (a1)^n (a2)^m / (n! m!) for n >= m, and
    the conjugate of G_mn for n < m; generators applied in that order, the
    left ones from the inside out."""
    if family == "G" and n < m:
        return dho_ladder("G", m, n, space).conjugate()
    lad = ladder_set(ModelId.dho(), space)
    if family == "F":
        out = dho_f(0, 0, "+", space)
        left, right = [("a2", n), ("a2*", m)], [("a1", m), ("a1*", n)]
    else:
        out = dho_g(0, 0, space)
        left, right = [("a2*", n), ("a1*", m)], [("a1", n), ("a2", m)]
    for name, count in left:
        for _ in range(count):
            out = star(lad[name], out)
    for name, count in right:
        for _ in range(count):
            out = star(out, lad[name])
    if family == "G":
        return out.scaled(1.0 / (math.factorial(n) * math.factorial(m)))
    return out if n == m == 0 else out.scaled(1.0 / out.gaussian_integral())

"""Seeded op-stream generators for the mqds benchmark.

A workload turns ``--seed`` into a fixed sequence of passes.  A pass is a
list of plain-data op specs that one fresh worker process builds and runs
(see ``worker.py``).  This module never imports mqds: the program only ever
receives the generated inputs.

Passes are stratified so that the cost profile of a pass barely depends on
the seed: the seed picks members, orders, grid shapes and points, but every
pass of a workload has the same number of ops of each class at each value
of hbar.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List

WORKLOADS = ("verify_all", "family_star", "random_star", "cli_mix")

# More passes than any run gets through; a run takes them in order.
MAX_PASSES = 48

FAMILY_HBARS = (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0)
# ROADMAP item 2: coefficient pruning is not unit-invariant, so family
# identities fail away from these values of hbar.  Such failures are counted
# in `failed`; only failures at these values make a run incorrect.
FAMILY_HBARS_EXACT = (0.1, 1.0)

ORACLE_HBARS = (0.5, 1.0, 2.0)
# The oracle's eps ladder and grid sizing are not scale-covariant either
# (ROADMAP aim 3): at hbar = 2 its eps-ladder path misses polynomial pairs
# such as x*x by up to 2e-3 or raises OracleNotConverged.  Failures there
# are counted in `failed`; only failures at these values make a run incorrect.
ORACLE_LADDER_HBARS_EXACT = (0.5, 1.0)

# {"ops": [op spec, ...]} plus, for random_star, the "pool" the ops index
Pass = Dict


def plan(workload: str, seed: int) -> List[Pass]:
    """The first MAX_PASSES passes of `workload` for `seed`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload '{workload}'")
    rng = random.Random(f"{workload}:{seed}")
    make = _MAKERS[workload]
    return [make(rng) for _ in range(MAX_PASSES)]


def digest(passes: List[Pass]) -> str:
    """sha256 of the canonical JSON of an op list."""
    text = json.dumps(passes, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# verify_all: one op per pass, `mqds verify --suite all --seed S`
# ---------------------------------------------------------------------------

def _verify_pass(rng: random.Random) -> Pass:
    return {"ops": [{"seed": rng.randrange(2**31)}]}


# ---------------------------------------------------------------------------
# family_star: star products between family members, plus H*F and F*H
# ---------------------------------------------------------------------------
#
# Every pass runs the same menu at each hbar; the seed picks the members
# within each menu line (members of a line cost about the same), the toy
# sign, the side of the eigen products, and the order of the ops.  That
# keeps the work of a pass nearly independent of the seed.
#
# Left out, because one op alone takes seconds (hbar = 1, cold, 2-vCPU Xeon VM):
#   W_a*W_b with a + b > 12 (W9*W9 3.7 s, W10*W10 6 s, W12*W12 23 s) and
#   right-heavy W_a*W_b (W0*W12 3.0 s, W1*W11 1.4 s);
#   dho F_a*F_b with both factors above total index 3 or a right factor
#   above 1 (F00*F66 1.0 s, F34*F21 0.9 s, F66*F11 0.5 s, F66*F66 4.7 s).
# G_a*G_b is left out altogether: G's exponent grows on the real domain, so
# the twisted integral diverges, and the closed form breaks the identity
# conj(f*g) = conj(g)*conj(f) on it (residual ~1 at hbar = 1).  G enters
# through the eigen products H*G and G*H.
# Every member up to the top of its range still appears: W12*W0, toy
# F12*F12, dho F66*F10, and F66 and G66 in the eigen products.

def _dho_top(rng: random.Random) -> List[int]:
    """A dho member of total index 10 to 12."""
    return list(rng.choice([(n, m) for n in range(7) for m in range(7) if n + m >= 10]))


def _family_pass(rng: random.Random) -> Pass:
    ops: List[Dict] = []

    def pair(fam, a, b, hbar, both=False):
        ops.append({"kind": "pair", "fam": fam, "a": a, "b": b, "hbar": hbar})
        if both:
            ops.append({"kind": "pair", "fam": fam, "a": b, "b": a, "hbar": hbar})

    def eigen(fam, a, hbar):
        ops.append({"kind": rng.choice(("HF", "FH")), "fam": fam, "a": a, "b": None, "hbar": hbar})

    for hbar in FAMILY_HBARS:
        a = rng.choice((4, 5, 6))
        pair("W", [a], [10 - a], hbar)
        pair("W", [12], [rng.choice((0, 1))], hbar)
        a = rng.randrange(5)
        pair("W", [a], [4 - a], hbar, both=True)
        sign = rng.choice("+-")
        pair("F" + sign, [rng.choice((10, 11, 12))], [rng.choice((10, 11, 12))], hbar)
        a = rng.randrange(7)
        pair("F" + sign, [a], [6 - a], hbar, both=True)
        top = _dho_top(rng)
        pair("Fd", top, list(rng.choice(((1, 0), (0, 1)))), hbar)
        mids = [(3, 0), (2, 1), (1, 2), (0, 3)]
        pair("Fd", list(rng.choice(mids)), list(rng.choice(mids)), hbar, both=True)
        eigen("G", _dho_top(rng), hbar)
        eigen("Fd", top, hbar)
        eigen("W", [rng.choice((10, 11, 12))], hbar)
        eigen("F" + rng.choice("+-"), [rng.choice((10, 11, 12))], hbar)
    rng.shuffle(ops)
    return {"ops": ops}


# ---------------------------------------------------------------------------
# random_star: star products over a pool of random poly x Gaussian functions
# ---------------------------------------------------------------------------
#
# The pool of one pass holds more distinct exponent pairs than the 128-entry
# composition cache, so the cache rarely hits and its clear-all eviction
# fires inside the pass.  Shapes are fixed (terms per function, degrees of
# the monomials, how many ops of each pairing) and the seed draws exponents,
# coefficients, exponent vectors and pairs, so the work of a pass barely
# depends on the seed.

# (Gaussian functions with one term, with two terms, pure polynomials)
RANDOM_POOL = {1: (8, 8, 4), 2: (14, 14, 6)}
# Ops per pairing: Gaussian*Gaussian by the factors' term counts (1*1, 1*2,
# 2*1, 2*2), then poly*Gaussian, Gaussian*poly, poly*poly.  N = 2 Gaussian
# pairs with two term pairs are the middle of the cost order, so the median
# op is one of them: on a shared machine, millisecond ops swing about twice
# as much with other tenants' load as these do.
RANDOM_OPS = {1: ((3, 3, 3, 3), 3, 3, 2), 2: ((6, 24, 24, 10), 4, 4, 2)}
GAUSS_DEGREES = (1, 2, 4)
POLY_DEGREES = (1, 2, 3)
HEAVY_DEGREES = (2, 4, 6, 6)


def _cplx(rng: random.Random) -> List[float]:
    return [rng.gauss(0, 1), rng.gauss(0, 1)]


def _random_poly(rng: random.Random, d: int, degrees) -> List:
    """One monomial of each total degree, spread at random over the variables."""
    out = []
    for deg in degrees:
        e = [0] * d
        for _ in range(deg):
            e[rng.randrange(d)] += 1
        out.append([e, _cplx(rng)])
    return out


def _random_exponent(rng: random.Random, d: int) -> Dict:
    """A = R^T R + 0.4 I + 0.35i (S + S^T) as in the tests; b is complex normal
    at half the tests' scale, which keeps most centres A^-1 b near the origin."""
    R = [[rng.gauss(0, 1) for _ in range(d)] for _ in range(d)]
    S = [[rng.gauss(0, 1) for _ in range(d)] for _ in range(d)]
    A = [[[sum(R[k][i] * R[k][j] for k in range(d)) + (0.4 if i == j else 0.0),
           0.35 * (S[i][j] + S[j][i])] for j in range(d)] for i in range(d)]
    return {"A": A, "b": [[0.5 * v for v in _cplx(rng)] for _ in range(d)]}


def _gaussian(rng: random.Random, n_dof: int, terms: int, degrees) -> Dict:
    d = 2 * n_dof
    return {"n": n_dof, "terms": [dict(_random_exponent(rng, d), poly=_random_poly(rng, d, degrees))
                                  for _ in range(terms)]}


def _polynomial(rng: random.Random, n_dof: int) -> Dict:
    return {"n": n_dof, "terms": [{"A": None, "b": None,
                                   "poly": _random_poly(rng, 2 * n_dof, POLY_DEGREES)}]}


def _random_pass(rng: random.Random) -> Pass:
    """Ops name functions by their index in the pass's pool."""
    pool: List[Dict] = []
    ops: List[Dict] = []
    for n, (one, two, polys) in RANDOM_POOL.items():
        first = len(pool)
        pool.extend(_gaussian(rng, n, 1, GAUSS_DEGREES) for _ in range(one))
        pool.extend(_gaussian(rng, n, 2, GAUSS_DEGREES) for _ in range(two))
        pool.extend(_polynomial(rng, n) for _ in range(polys))
        by_terms = (range(first, first + one), range(first + one, first + one + two))
        poly = range(first + one + two, len(pool))
        gg, pg, gp, pp = RANDOM_OPS[n]
        pairs = [(by_terms[a], by_terms[b])
                 for (a, b), count in zip(((0, 0), (0, 1), (1, 0), (1, 1)), gg) for _ in range(count)]
        pairs += [(poly, by_terms[i % 2]) for i in range(pg)]
        pairs += [(by_terms[i % 2], poly) for i in range(gp)]
        pairs += [(poly, poly)] * pp
        for left, right in pairs:
            ops.append({"f": rng.choice(left), "g": rng.choice(right),
                        "z": [rng.uniform(-1.0, 1.0) for _ in range(2 * n)]})
    pool.append(_gaussian(rng, 2, 3, HEAVY_DEGREES))
    pool.append(_gaussian(rng, 2, 1, GAUSS_DEGREES))
    heavy = [len(pool) - 2, len(pool) - 1]
    rng.shuffle(heavy)
    ops.append({"f": heavy[0], "g": heavy[1], "z": [rng.uniform(-1.0, 1.0) for _ in range(4)]})
    rng.shuffle(ops)
    return {"pool": pool, "ops": ops}


# ---------------------------------------------------------------------------
# cli_mix: in-process `mqds eigenfunction` grids and `mqds oracle` tables
# ---------------------------------------------------------------------------

# Oracle pairs whose star product does not vanish.  Decaying pairs take the
# refined-grid path; polynomial and pure-phase pairs take the eps ladder.
ORACLE_DECAYING = (("W0", "W0"), ("W1", "W1"), ("W2", "W2"), ("W3", "W3"))
ORACLE_LADDER = (("x", "p"), ("p", "x"), ("x", "x"), ("F0+", "F0+"), ("F0-", "F0-"))


def _axis(rng: random.Random, name: str, points: int, half: float) -> str:
    lo = -round(rng.uniform(0.7, 1.0) * half, 3)
    hi = round(rng.uniform(0.7, 1.0) * half, 3)
    return f"{name}={lo}:{hi}:{points}"


def _grid_op(model: str, family: str, n: int, m: int, sign: str, fmt: str, grid: str) -> Dict:
    argv = ["eigenfunction", "--model", model, "--family", family, "--n", str(n),
            "--m", str(m), "--sign", sign, "--grid", grid, "--format", fmt]
    return {"argv": argv}


def _oracle_op(rng: random.Random, pair, hbar: float, max_points: int) -> Dict:
    points = ";".join(",".join(f"{rng.uniform(-1.0, 1.0):.4f}" for _ in range(2))
                      for _ in range(rng.randint(1, max_points)))
    argv = ["oracle", "--f", pair[0], "--g", pair[1], f"--points={points}", "--hbar", str(hbar)]
    return {"argv": argv}


# Monomials of the dho members F_nm and G_nm (the tables agree), n by rows.
DHO_MONOMIALS = (
    (1, 5, 14, 30, 55, 91, 140),
    (5, 7, 30, 44, 91, 119, 204),
    (14, 30, 25, 85, 140, 204, 277),
    (30, 44, 85, 63, 204, 266, 337),
    (55, 91, 140, 204, 129, 375, 506),
    (91, 119, 204, 266, 375, 231, 650),
    (140, 204, 277, 337, 506, 650, 377),
)


# Per-point cost of `mqds eigenfunction` for the code this benchmark was
# written against, on a 2-vCPU Xeon VM, in us: evaluation overhead plus
# formatting, and a slope per monomial of the member.
GRID_POINT_US = {"W": 12.0, "F_toy": 14.0, "F": 20.0, "G": 20.0}
GRID_MONOMIAL_US = {"W": 0.75, "F_toy": 1.0, "F": 1.5, "G": 1.45}
GRID_OP_US = 1.5e5


def _grid_side(kind: str, monomials: int, dims: int) -> int:
    """Points per axis at which a grid op costs about GRID_OP_US with that
    cost model, whatever the member."""
    points = GRID_OP_US / (GRID_POINT_US[kind] + GRID_MONOMIAL_US[kind] * monomials)
    return max(4 if dims == 4 else 16, round(min(points, 40000.0) ** (1.0 / dims)))


def _cli_pass(rng: random.Random) -> Pass:
    """Four grids of each family (two CSV, two JSON), one decaying-path
    oracle table and one eps-ladder oracle point at each hbar."""
    ops: List[Dict] = []
    for kind in ("W", "F_toy", "F", "G"):
        formats = ["csv", "csv", "json", "json"]
        rng.shuffle(formats)
        for fmt in formats:
            if kind == "W":
                n = rng.randrange(13)
                side = _grid_side(kind, (n + 1) * (n + 2) // 2, 2)
                grid = ",".join([_axis(rng, "x", side, 4.0), _axis(rng, "p", side, 4.0)])
                ops.append(_grid_op("oscillator", "W", n, 0, "+", fmt, grid))
            elif kind == "F_toy":
                n = rng.randrange(13)
                side = _grid_side(kind, n + 1, 2)
                grid = ",".join([_axis(rng, "x", side, 3.0), _axis(rng, "p", side, 3.0)])
                ops.append(_grid_op("damped_toy", "F", n, 0, rng.choice("+-"), fmt, grid))
            else:
                n, m = rng.randrange(7), rng.randrange(7)
                dims = rng.choice((2, 4))
                names = ("x1", "p1") if dims == 2 else ("x1", "x2", "p1", "p2")
                side = _grid_side(kind, DHO_MONOMIALS[n][m], dims)
                grid = ",".join(_axis(rng, v, side, 3.0) for v in names)
                ops.append(_grid_op("damped_ho", kind, n, m, "+", fmt, grid))
    ops.append(_oracle_op(rng, rng.choice(ORACLE_DECAYING), rng.choice(ORACLE_HBARS), 2))
    # the eps-ladder oracle's grid, memory and time grow as 1/hbar^2; every
    # pass has one point at each hbar, so every pass peaks alike in memory
    for hbar in ORACLE_HBARS:
        ops.append(_oracle_op(rng, rng.choice(ORACLE_LADDER), hbar, 1))
    rng.shuffle(ops)
    return {"ops": ops}


_MAKERS = {
    "verify_all": _verify_pass,
    "family_star": _family_pass,
    "random_star": _random_pass,
    "cli_mix": _cli_pass,
}

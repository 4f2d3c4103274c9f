"""The op-stream generators are deterministic in the seed and vary with it,
and random_star's check tells an oracle miss from a wrong star product.

Run with: PYTHONPATH=src python3 -m pytest -q perfbench/test_workloads.py
"""

import pytest

import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_digest(workload):
    assert workloads.digest(workloads.plan(workload, 7)) == workloads.digest(workloads.plan(workload, 7))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seeds_different_digests(workload):
    digests = {workloads.digest(workloads.plan(workload, seed)) for seed in range(4)}
    assert len(digests) == 4


def test_workloads_differ_for_one_seed():
    digests = {workloads.digest(workloads.plan(w, 0)) for w in workloads.WORKLOADS}
    assert len(digests) == len(workloads.WORKLOADS)


def test_wide_quadrature_matches_closed_form():
    """The reference that judges random_star's oracle misses agrees with the
    closed-form star product on an off-centre N = 1 Gaussian pair."""
    import numpy as np
    mqds = pytest.importorskip("mqds")
    import worker

    space = mqds.VarSpace(1, 1.0)

    def gaussian(A, b, poly):
        return mqds.QGFunction(space, [mqds.QGTerm(mqds.Poly(2, poly),
                                                   mqds.QuadExponent(np.array(A), np.array(b)))])

    f = gaussian([[1.2, 0.3j], [0.3j, 0.8]], [0.9 + 0.4j, -0.5j], {(1, 0): 1.0, (0, 2): 0.5j})
    g = gaussian([[0.7, -0.2], [-0.2, 1.5]], [-0.6, 1.1 + 0.3j], {(0, 0): 1.0, (2, 1): -0.3})
    z = [0.3, -0.4]
    closed = mqds.star(f, g).evaluate(z)
    wide, converged = worker._wide_quadrature(f, g, z)
    assert converged
    assert abs(wide - closed) <= 1e-9 * abs(closed)


def test_random_star_oracle_miss_is_the_oracles():
    """random_star seed 986969583, pass 0, op 1: the oracle's box of
    half-width 8 truncates, so it misses the closed form by 2.5e-5; the check
    must not report that as a wrong star product."""
    mqds = pytest.importorskip("mqds")
    import mqds.cli  # noqa: F401 - the worker's workloads look it up
    import worker

    pass0 = workloads.plan("random_star", 986969583)[0]
    work = worker.RandomStar(mqds, {"pass": pass0, "outdir": ".", "tag": "t"})
    work.setup(pass0["ops"])
    op = pass0["ops"][1]
    verdict, _ = work.check(1, op, work.run(1, op))
    assert verdict.ok or verdict.known, verdict.detail

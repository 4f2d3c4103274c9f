"""Verification-module contracts: registry, determinism, report semantics."""

import json
import math

import numpy as np
import pytest

from conftest import random_gaussian
from mqds.algebra import VarSpace
from mqds.star import star
from mqds.verify import (CHECK_REGISTRY, DEFAULT_TOLERANCES, CheckEntry,
                         check_classical_limit, check_conjugation, check_eigen,
                         check_identity_resolution, relative_gap, run_all)


def test_registry_names_fixed():
    assert CHECK_REGISTRY == (
        "eigen_residual", "star_orthogonality", "marginal_delta", "normalization",
        "identity_resolution", "evolution_match", "complex_scaling_match",
        "koopman_zero_mode", "conjugation_symmetry", "pair_transform_match",
        "classical_limit",
    )
    assert set(DEFAULT_TOLERANCES) == set(CHECK_REGISTRY)


def test_entry_pass_semantics():
    e = CheckEntry("eigen_residual", {}, 1e-11, 1e-10)
    assert e.passed
    e = CheckEntry("eigen_residual", {}, 2e-10, 1e-10)
    assert not e.passed


def test_check_eigen_small():
    rep = check_eigen(max_index=2, max_index_2d=1)
    assert rep.all_passed
    fams = {e.params.get("family") for e in rep.entries if "family" in e.params}
    assert {"W", "F_toy", "F_dho", "G_dho"} <= fams


def test_classical_limit_sequence_recorded():
    rep = check_classical_limit()
    assert rep.all_passed
    seq_entries = [e for e in rep.entries if e.params.get("kind") == "decreasing"]
    assert seq_entries
    for e in seq_entries:
        rs = e.params["residuals"]
        assert all(rs[i + 1] < rs[i] for i in range(len(rs) - 1))


def test_identity_resolution_monotone():
    rep = check_identity_resolution()
    assert rep.all_passed
    ratios = [e for e in rep.entries if e.params.get("kind") == "final_ratio"]
    assert len(ratios) == 2
    assert all(e.residual <= 1e-3 for e in ratios)


def test_run_all_selector_subset():
    rep = run_all(selectors=["koopman_zero_mode"])
    assert rep.entries
    assert {e.name for e in rep.entries} == {"koopman_zero_mode"}


def test_run_all_unknown_selector():
    with pytest.raises(KeyError):
        run_all(selectors=["bogus"])


def test_tolerance_override_forces_failures():
    rep = run_all(selectors=["conjugation_symmetry"],
                  tolerance_overrides={"conjugation_symmetry": 1e-30})
    assert rep.n_failed > 0
    # report stays structurally intact
    data = rep.to_json_dict()
    assert data["summary"]["failed"] == rep.n_failed


def test_failing_check_does_not_abort_siblings(monkeypatch):
    import mqds.verify as V

    def boom(**kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(V._CHECK_FUNCTIONS, "koopman_zero_mode", boom)
    rep = run_all(selectors=["koopman_zero_mode", "classical_limit"])
    names = {e.name for e in rep.entries}
    assert "classical_limit" in names
    failed = [e for e in rep.entries if e.name == "koopman_zero_mode"]
    assert len(failed) == 1 and not failed[0].passed
    assert math.isinf(failed[0].residual)


def test_report_json_schema():
    rep = run_all(selectors=["pair_transform_match"])
    data = rep.to_json_dict()
    assert set(data) == {"checks", "summary"}
    assert set(data["summary"]) == {"passed", "failed"}
    for c in data["checks"]:
        assert set(c) == {"name", "params", "residual", "tolerance", "passed"}
        assert c["name"] in CHECK_REGISTRY
        json.dumps(c)  # serializable


def test_report_deterministic_under_seed():
    r1 = run_all(selectors=["conjugation_symmetry", "classical_limit"], seed=7)
    r2 = run_all(selectors=["conjugation_symmetry", "classical_limit"], seed=7)
    assert r1.to_json() == r2.to_json()


def test_wall_time_excluded_from_json():
    rep = run_all(selectors=["classical_limit"])
    assert "wall_time" not in json.dumps(rep.to_json_dict())
    assert all(e.wall_time >= 0 for e in rep.entries)


def test_identities_hold_at_nondefault_parameters():
    # nothing in the constructions is allowed to assume hbar = w = g = 1
    rep = run_all(selectors=["eigen_residual", "identity_resolution", "normalization",
                             "evolution_match", "pair_transform_match"],
                  hbar=0.5, omega=1.3, gamma=0.8)
    assert rep.all_passed, [(e.name, e.params) for e in rep.failed_entries()]


@pytest.mark.parametrize("seed", [32, 133, 174, 193, 395, 599948519])
def test_conj_antihomomorphism_scaled_by_the_products(seed):
    # |f||g| underestimates |f*g| by up to 2700 on these seeds, which pushed
    # rounding past the 1e-12 tolerance when it was the denominator
    entries = [e for e in check_conjugation(seed=seed).entries
               if e.params.get("identity") == "conj_antihomomorphism"]
    assert len(entries) == 5
    assert all(e.passed for e in entries)


def test_conj_wrong_order_identity_fails():
    # conj(f*g) = conj(f)*conj(g) is false, and the metric says so plainly
    sp = VarSpace(1, 1.0)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        f, g = random_gaussian(sp, rng), random_gaussian(sp, rng)
        assert relative_gap(star(f, g).conjugate(), star(g.conjugate(), f.conjugate())) <= 1e-13
        assert relative_gap(star(f, g).conjugate(), star(f.conjugate(), g.conjugate())) >= 1.0


@pytest.mark.slow
@pytest.mark.parametrize("hbar", [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0])
def test_marginals_pass_at_any_hbar(hbar):
    # every check but star_orthogonality, whose oracle box does not follow
    # hbar.  The marginal_delta W entries compare against a grid quadrature
    # whose box follows the product's width (a fixed +-9 box missed by up to
    # 0.5 at hbar = 0.01 and 100); the generator_series entries of
    # complex_scaling_match nest brackets (a binomial sum of star powers
    # missed by 3.75 at hbar = 1e-3)
    rep = run_all(selectors=[c for c in CHECK_REGISTRY if c != "star_orthogonality"], hbar=hbar)
    assert len(rep.entries) == 295
    assert rep.all_passed, [(e.params, e.residual) for e in rep.failed_entries()]

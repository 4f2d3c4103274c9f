"""Verification-module contracts: registry, determinism, report semantics."""

import inspect
import json
import logging
import math

import numpy as np
import pytest

from conftest import random_gaussian
from mqds import models
from mqds.algebra import QGFunction, QGTerm, VarSpace
from mqds.models import dho_f, dho_g, oscillator_wigner, oscillator_wigner_ladder
from mqds.poly import Poly
from mqds.star import star
from mqds.verify import (_CHECKS, CHECK_REGISTRY, CheckEntry, VerificationReport, _orthogonality_entries,
                         _Recorder, check_classical_limit, check_conjugation, check_eigen,
                         check_identity_resolution, relative_gap, run_all)

HBARS = [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0]


def test_registry_names_fixed():
    assert CHECK_REGISTRY == (
        "eigen_residual", "star_orthogonality", "marginal_delta", "normalization",
        "identity_resolution", "evolution_match", "complex_scaling_match",
        "koopman_zero_mode", "conjugation_symmetry", "pair_transform_match",
        "classical_limit",
    )


def test_checks_take_only_what_run_all_passes():
    # a parameter outside these would have no caller: run_all never sets it
    for name, (fn, tolerance) in _CHECKS.items():
        params = set(inspect.signature(fn).parameters)
        assert params <= {"hbar", "omega", "gamma", "seed", "tolerance"}, name
        assert "tolerance" in params and tolerance > 0, name


def test_entry_pass_semantics():
    e = CheckEntry("eigen_residual", {}, 1e-11, 1e-10)
    assert e.passed
    e = CheckEntry("eigen_residual", {}, 2e-10, 1e-10)
    assert not e.passed


def test_check_eigen_covers_every_family():
    rep = check_eigen()
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


def test_zero_tolerance_override_is_kept():
    rep = run_all(selectors=["koopman_zero_mode"], tolerance_overrides={"koopman_zero_mode": 0.0})
    assert {e.tolerance for e in rep.entries} == {0.0}
    assert [e.passed for e in rep.entries] == [e.residual == 0 for e in rep.entries]


def test_failing_check_does_not_abort_siblings(monkeypatch):
    import mqds.verify as V

    memo_during = []

    def boom(**kwargs):
        memo_during.append(models._RUN_MEMO.get())
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(V._CHECKS, "koopman_zero_mode", (boom, 1e-12))
    rep = run_all(selectors=["koopman_zero_mode", "classical_limit"])
    assert memo_during[0] is not None
    assert models._RUN_MEMO.get() is None
    names = {e.name for e in rep.entries}
    assert "classical_limit" in names
    failed = [e for e in rep.entries if e.name == "koopman_zero_mode"]
    assert len(failed) == 1 and not failed[0].passed
    assert math.isinf(failed[0].residual)


@pytest.mark.parametrize("hbar", [1.0, 0.5])
def test_run_memo_changes_no_result(hbar):
    # the memo only skips repeats of the same star products in the same
    # order, so each check alone, with nothing reused, reports the same bytes
    report = run_all(seed=0, hbar=hbar)
    assert models._RUN_MEMO.get() is None
    alone = VerificationReport()
    values = {"hbar": hbar, "omega": 1.0, "gamma": 1.0, "seed": 0}
    for fn, _ in _CHECKS.values():
        params = inspect.signature(fn).parameters
        alone.extend(fn(**{k: v for k, v in values.items() if k in params}))
    assert report.to_json() == alone.to_json()


def test_builders_keep_nothing_outside_a_run():
    sp = VarSpace(2, 1.0)
    first, second = dho_f(2, 1, "-", sp), dho_f(2, 1, "-", sp)
    assert first is not second
    assert first.to_json_dict() == second.to_json_dict()


def test_run_memo_reuses_members_and_chain_states():
    sp1, sp2 = VarSpace(1, 1.0), VarSpace(2, 1.0)
    memo = {}
    token = models._RUN_MEMO.set(memo)
    try:
        oscillator_wigner_ladder(3, sp1)
        assert len(memo) == 4  # the rungs W0 .. W3
        W4 = oscillator_wigner_ladder(4, sp1)
        assert len(memo) == 5  # one rung on the held W3
        assert oscillator_wigner_ladder(4, sp1) is W4
        F = dho_f(2, 1, "-", sp2)
        assert len(memo) == 7  # F- and F+, its source
        assert dho_f(2, 1, "-", sp2) is F
        dho_f(2, 1, "+", sp2)
        G = dho_g(1, 2, sp2)
        assert len(memo) == 9  # G12 and G21, its mirror
        dho_g(2, 1, sp2)
        assert len(memo) == 9
    finally:
        models._RUN_MEMO.reset(token)
    assert F.to_json_dict() == memo[("dho_f", (2, 1, "+", sp2), ())].conjugate().to_json_dict()
    assert G.to_json_dict() == memo[("dho_g", (2, 1, sp2), ())].conjugate().to_json_dict()
    # every held value is bit for bit what a memo-free build returns
    for (name, args, kwargs), value in memo.items():
        assert value.to_json_dict() == getattr(models, name)(*args, **dict(kwargs)).to_json_dict(), args


def test_run_all_logs_check_times_and_memo_counts(caplog):
    selectors = ["conjugation_symmetry", "koopman_zero_mode"]
    quiet = run_all(selectors=selectors).to_json()
    with caplog.at_level(logging.DEBUG, logger="mqds"):
        loud = run_all(selectors=selectors).to_json()
    assert loud == quiet
    messages = [r.getMessage() for r in caplog.records if r.name.startswith("mqds")]
    for name in selectors:
        assert any(m.startswith(f"check {name}: ") and m.endswith(" s") for m in messages)
    memo_lines = [m for m in messages if m.startswith("run memo: ")]
    assert len(memo_lines) == 1
    # conjugation_symmetry builds dho members, each once
    assert memo_lines[0].endswith(" values built") and memo_lines[0] != "run memo: 0 values built"


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


@pytest.mark.parametrize("hbar", HBARS)
def test_run_all_passes_at_hbar(hbar):
    # the oracle's box must grow as sqrt(hbar): a half-width of 12 missed
    # W3*W3 by 7.9e-6 and W2*dampF1+ by 2.1e-6 at hbar = 10.  The oracle
    # cases are posed in natural units (z, the damping and the shifted
    # Gaussian scale with sqrt(hbar)): with a fixed 0.6 damping and a fixed
    # 0.9-wide Gaussian, 7 of them needed more grid points than the bound at
    # hbar = 1e-3 and 1e-2, and dampF1-*dampF1+ was 7.2e-60 at its z at 0.1.
    # The marginal_delta W entries compare against a grid quadrature whose box
    # follows the product's width (a fixed +-9 box missed by up to 0.5 at
    # hbar = 0.01 and 100); the generator_series entries of
    # complex_scaling_match nest brackets (a binomial sum of star powers
    # missed by 3.75 at hbar = 1e-3)
    rep = run_all(hbar=hbar)
    assert len(rep.entries) == 533
    assert rep.all_passed, [(e.params, e.residual) for e in rep.failed_entries()]
    oracle = [e for e in rep.entries if e.params.get("check") == "oracle_agreement"]
    assert len(oracle) == 10 and max(e.residual for e in oracle) <= 1e-12


@pytest.mark.parametrize("hbar", HBARS)
def test_truncated_member_fails_at_every_hbar(hbar):
    # W_6 without its x^12 monomial.  At hbar = 100 that coefficient is
    # 2.8e-16, 7.1e-14 of the raw coefficient sum, so a norm of raw
    # coefficients scored the truncation below every tolerance; weighed in
    # units of sqrt(hbar) it is 1.5e-4 of W_6 at every hbar
    space = VarSpace(1, hbar)
    W = oscillator_wigner(6, space)
    (term,) = W.terms
    cut = QGFunction(space, [QGTerm(Poly(2, {e: c for e, c in term.poly.terms.items() if e != (12, 0)}),
                                    term.expo)])
    assert relative_gap(cut, W) == pytest.approx(1.5e-4, rel=0.1)
    rec = _Recorder("star_orthogonality", None)
    _orthogonality_entries(rec, {(6,): cut}, 2 * math.pi * hbar, "W")
    assert not rec.entries[0].passed

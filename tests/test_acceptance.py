"""Acceptance gate: each criterion runs at its stated tolerance and prints
one pass/fail line (run with -s to see them inline)."""

import json
import subprocess
import sys
import time

from mqds.verify import (check_complex_scaling, check_conjugation, check_eigen,
                         check_evolution, check_identity_resolution, check_koopman,
                         check_marginals, check_normalization, check_pair_transform,
                         check_star_orthogonality)


def _report_line(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {label} {detail}")


def _worst(report, **filters):
    vals = [e.residual for e in report.entries
            if all(e.params.get(k) == v for k, v in filters.items())]
    return max(vals) if vals else 0.0


def test_criterion_1_eigen_equations():
    """n <= 8 (W, toy F+-), n,m <= 4 (dho F+-, G): two-sided relative
    eigen-residual <= 1e-10; runtime < 10 s."""
    t0 = time.perf_counter()
    rep = check_eigen(tolerance=1e-10)
    dt = time.perf_counter() - t0
    eigen_entries = [e for e in rep.entries if "identity" not in e.params]
    worst = max(e.residual for e in eigen_entries)
    ok = all(e.passed for e in eigen_entries) and dt < 10.0
    _report_line(1, "eigen-equations", ok, f"(worst {worst:.2e}, {dt:.1f}s)")
    assert ok


def test_criterion_2_star_orthogonality():
    """(2 pi hbar)^N F_n * F_m = delta_nm F_n at 1e-9 for n,m <= 6 (N=1) and
    indices <= 2 (N=2); oracle validation at 10 points <= 1e-6; < 30 s."""
    t0 = time.perf_counter()
    rep = check_star_orthogonality(tolerance=1e-9)
    dt = time.perf_counter() - t0
    orth = [e for e in rep.entries if e.params.get("check") != "oracle_agreement"]
    oracle = [e for e in rep.entries if e.params.get("check") == "oracle_agreement"]
    ok = (all(e.passed for e in orth) and len(oracle) == 10
          and all(e.passed for e in oracle) and dt < 30.0)
    _report_line(2, "star-orthogonality + oracle", ok,
                 f"(worst orth {max(e.residual for e in orth):.2e}, "
                 f"worst oracle {max(e.residual for e in oracle):.2e}, {dt:.1f}s)")
    assert ok


def test_criterion_3_marginals_and_normalization():
    """Weak-form delta marginals equal phi(0) at 1e-8 for a 9-member family
    per marginal; every normalized member integrates to 1 at 1e-8; < 10 s."""
    t0 = time.perf_counter()
    marg = check_marginals(tolerance=1e-8)
    norm = check_normalization(tolerance=1e-8)
    dt = time.perf_counter() - t0
    ok = marg.all_passed and norm.all_passed and dt < 10.0
    _report_line(3, "marginals + normalization", ok,
                 f"(worst marginal {max(e.residual for e in marg.entries):.2e}, "
                 f"worst norm {max(e.residual for e in norm.entries):.2e}, {dt:.1f}s)")
    assert ok


def test_criterion_4_identity_resolution():
    """Weakly paired partial sums decrease monotonically for N = 2..12 with
    final residual <= 1e-3 of the N=2 residual; < 10 s."""
    t0 = time.perf_counter()
    rep = check_identity_resolution(tolerance=1e-3)
    dt = time.perf_counter() - t0
    ok = rep.all_passed and dt < 10.0
    ratios = [e.residual for e in rep.entries if e.params.get("kind") == "final_ratio"]
    _report_line(4, "resolution of identity", ok,
                 f"(final ratios {', '.join(f'{r:.2e}' for r in ratios)}, {dt:.1f}s)")
    assert ok


def test_criterion_5_time_evolution():
    """Series/closed-form Taylor match through t^8 at 1e-10; i hbar dU = H*U
    order by order; displaced-Gaussian characteristics at 1e-9; < 10 s."""
    t0 = time.perf_counter()
    rep = check_evolution(tolerance=1e-10)
    dt = time.perf_counter() - t0
    ok = rep.all_passed and dt < 10.0
    _report_line(5, "time evolution", ok,
                 f"(worst {max(e.residual for e in rep.entries):.2e}, {dt:.1f}s)")
    assert ok


def test_criterion_6_complex_scaling():
    """Conjugation at lambda = -+pi/4 maps W_n onto F+-_n at 1e-10 for n <= 6;
    generator relations hold perturbatively through order 6 at 1e-10."""
    t0 = time.perf_counter()
    rep = check_complex_scaling(tolerance=1e-10)
    dt = time.perf_counter() - t0
    ok = rep.all_passed
    _report_line(6, "complex scaling", ok,
                 f"(worst {max(e.residual for e in rep.entries):.2e}, {dt:.1f}s)")
    assert ok


def test_criterion_7_pair_transform():
    """Transform reproduces F0+ from (1, delta), F00+ from (delta delta, 1),
    and W0 from the Gaussian pair, all at 1e-10."""
    t0 = time.perf_counter()
    rep = check_pair_transform(tolerance=1e-10)
    dt = time.perf_counter() - t0
    ok = rep.all_passed
    _report_line(7, "resonant-pair transform", ok,
                 f"(worst {max(e.residual for e in rep.entries):.2e}, {dt:.1f}s)")
    assert ok


def test_criterion_8_structural_invariants():
    """CCRs at 1e-12; conjugation symmetry; Koopman zero modes at 1e-12;
    conj(f*g) = conj(g)*conj(f) at 1e-12 on random instances."""
    t0 = time.perf_counter()
    eig = check_eigen()
    ccr = [e for e in eig.entries if e.params.get("identity") == "ccr"]
    konj = check_conjugation(tolerance=1e-12)
    koop = check_koopman(tolerance=1e-12)
    dt = time.perf_counter() - t0
    ok = (len(ccr) == 6 and all(e.residual <= 1e-12 for e in ccr)
          and konj.all_passed and koop.all_passed)
    _report_line(8, "structural invariants", ok,
                 f"(worst ccr {max(e.residual for e in ccr):.2e}, "
                 f"worst conj {max(e.residual for e in konj.entries):.2e}, "
                 f"worst koopman {max(e.residual for e in koop.entries):.2e}, {dt:.1f}s)")
    assert ok


def test_criterion_9_cli_verify_all():
    """`mqds verify --suite all` exits 0 in under 60 s; report JSON validates."""
    t0 = time.perf_counter()
    r = subprocess.run([sys.executable, "-m", "mqds.cli", "verify", "--suite", "all"],
                       capture_output=True, text=True, timeout=120)
    dt = time.perf_counter() - t0
    data = json.loads(r.stdout)
    schema_ok = (set(data) == {"checks", "summary"}
                 and set(data["summary"]) == {"passed", "failed"}
                 and all(set(c) == {"name", "params", "residual", "tolerance", "passed"}
                         for c in data["checks"]))
    ok = r.returncode == 0 and dt < 60.0 and schema_ok and data["summary"]["failed"] == 0
    _report_line(9, "mqds verify all", ok,
                 f"(exit {r.returncode}, {data['summary']['passed']} checks, {dt:.1f}s)")
    assert ok

"""One benchmark pass, run in a fresh interpreter by run.py.

Usage: python3 worker.py SPEC.json OUT.json

The pass imports mqds from the checkout's src/, builds its inputs (set-up),
runs its ops one at a time with a clock around each (the timed window), and
only then checks every output.  With tracing on, the wrappers from
tracer.py are installed after the import, cover set-up and the ops, and are
removed before the checks.  numpy is imported only through mqds or inside
functions, so that its import counts in the set-up time.

Set-up and op times are reported twice: as measured, and scaled to the
host's full speed by a SpeedProbe that runs beside them (see there).
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import random
import resource
import statistics
import sys
import threading
import time
from typing import Dict, List, Tuple

from workloads import FAMILY_HBARS_EXACT, ORACLE_LADDER, ORACLE_LADDER_HBARS_EXACT

VERIFY_ENTRIES = 533
TOL_ORTHOGONALITY = 1e-9    # mqds.verify: star orthogonality
TOL_INTEGRAL = 1e-8         # mqds.verify: eps-extrapolated integrals
TOL_EIGEN = 1e-10           # mqds.verify: eigen-equations
TOL_ORACLE = 1e-6           # mqds.verify: quadrature-oracle comparisons
# random_star compares with the oracle at its own stated accuracy: it raises
# OracleNotConverged when refinements disagree beyond 1e-5, and on this pool
# it differs from the closed form by up to 2e-6 where its box holds the tails
TOL_ORACLE_RANDOM = 1e-5
# the benchmark's own wide-box quadrature, which judges an op when the
# oracle's box truncates (see RandomStar.check)
TOL_WIDE = 1e-9
WIDE_TAIL = 40.0            # the box reaches where every term is below e^-40 of its peak
WIDE_REFINE = 1.3           # second point count, to show the quadrature converged
CONJ_DEFECT_RESIDUAL = 1e-10
ORACLE_CHECKS = 4           # oracle comparisons per random_star pass
TOL_GRID = 1e-9             # grid value against pointwise evaluation, relative to the peak
GRID_SAMPLES = 48

PROBE_PERIOD_S = 0.02       # one probe per this much wall time
PROBE_WINDOW_S = 0.05       # probes this close to an op describe its host speed
# _probe_kernel's time on an unloaded core of the 2-vCPU Xeon VM the bounds
# were set on (2nd percentile of 11k probes); scaled times read as times there
PROBE_REF_S = 2.75e-4


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _function_digest(f) -> str:
    return _sha(json.dumps(f.to_json_dict(), sort_keys=True).encode())


def _natural_norm(f, hbar: float) -> float:
    """coeff_norm of f(sqrt(hbar) w): the coefficient of z^e weighs
    hbar^(|e|/2), so the residual does not depend on the unit of z (raw
    coefficients of W_8 span 20^8 at hbar = 0.1)."""
    return float(sum(math.exp(min(t.expo.c.real, 700.0))
                     * sum(abs(c) * hbar ** (sum(e) / 2) for e, c in t.poly.terms.items())
                     for t in f.terms))


class Check:
    """Outcome of one op's check; `known` marks a failure that is a
    documented open defect."""

    def __init__(self, ok: bool, detail: str = "", known: bool = False):
        self.ok, self.detail, self.known = ok, detail, known


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Builds a pass's inputs (`setup`), runs one op (`run`) and checks its
    output afterwards (`check`, returning the verdict and an output digest)."""

    def __init__(self, mqds, spec):
        self.m = mqds
        self.cli = sys.modules["mqds.cli"]
        self.outdir = spec["outdir"]
        self.tag = spec["tag"]

    def setup(self, ops) -> None:
        pass

    def op_extra(self, i: int, op) -> Dict:
        """Per-op facts for the report besides time and verdict."""
        return {}

    def known_defect(self, op) -> bool:
        """Whether a failure of this op is a documented open defect."""
        return False


class VerifyAll(Workload):
    """`mqds verify --suite all --seed S` through mqds.cli.main."""

    def _path(self, i: int) -> str:
        return os.path.join(self.outdir, f"{self.tag}-report{i}.json")

    def run(self, i: int, op):
        return self.cli.main(["verify", "--suite", "all", "--seed", str(op["seed"]),
                              "--out", self._path(i)])

    def check(self, i: int, op, rc) -> Tuple[Check, str]:
        with open(self._path(i), "rb") as fh:
            raw = fh.read()
        digest = _sha(raw)
        data = json.loads(raw)
        checks = data["checks"]
        bad = [c for c in checks if not c["passed"]]
        if rc != 0 or bad or len(checks) != VERIFY_ENTRIES or data["summary"]["failed"]:
            # Open defect: the registry's conj(f*g) = conj(g)*conj(f) entries
            # on random functions sit at their 1e-12 tolerance, and some
            # seeds exceed it (1.19e-12 at --seed 599948519).
            known = len(checks) == VERIFY_ENTRIES and all(
                c["name"] == "conjugation_symmetry"
                and c["params"].get("identity") == "conj_antihomomorphism"
                and c["residual"] <= CONJ_DEFECT_RESIDUAL for c in bad)
            detail = f"rc={rc} entries={len(checks)} failed={[(c['name'], c['residual']) for c in bad[:5]]}"
            return Check(False, detail, known=bool(bad) and known), digest
        return Check(True), digest


class FamilyStar(Workload):
    """Star products of family members and the eigen products H*F, F*H."""

    def __init__(self, mqds, spec):
        super().__init__(mqds, spec)
        self.members: Dict[Tuple, object] = {}
        self.errors: Dict[Tuple, str] = {}
        self.hams: Dict[Tuple, object] = {}

    def _model(self, fam: str):
        m = self.m
        if fam == "W":
            return m.ModelId.oscillator()
        if fam in ("F+", "F-"):
            return m.ModelId.toy()
        return m.ModelId.dho()

    def _space(self, fam: str, hbar: float):
        return self.m.VarSpace(2 if fam in ("Fd", "G") else 1, hbar)

    def _build(self, fam: str, idx: Tuple[int, ...], hbar: float):
        m, sp = self.m, self._space(fam, hbar)
        if fam == "W":
            return m.oscillator_wigner(idx[0], sp)
        if fam in ("F+", "F-"):
            return m.toy_resonant(idx[0], fam[1], sp)
        if fam == "Fd":
            return m.dho_f(idx[0], idx[1], "+", sp)
        return m.dho_g(idx[0], idx[1], sp)

    def _keys(self, op):
        keys = [(op["fam"], tuple(op["a"]), op["hbar"])]
        if op["b"] is not None:
            keys.append((op["fam"], tuple(op["b"]), op["hbar"]))
        return keys

    def setup(self, ops) -> None:
        for op in ops:
            for key in self._keys(op):
                if key in self.members or key in self.errors:
                    continue
                try:
                    self.members[key] = self._build(*key)
                except Exception as exc:  # noqa: BLE001 - the op using it fails
                    self.errors[key] = repr(exc)
            if op["kind"] != "pair":
                self._hamiltonian(op["fam"], op["hbar"])

    def _hamiltonian(self, fam: str, hbar: float):
        key = (self._model(fam).kind, hbar)
        if key not in self.hams:
            self.hams[key] = self.m.hamiltonian(self._model(fam), self._space(fam, hbar))
        return self.hams[key]

    def run(self, i: int, op):
        for key in self._keys(op):
            if key in self.errors:
                raise RuntimeError(f"building {key} failed: {self.errors[key]}")
        X = self.members[(op["fam"], tuple(op["a"]), op["hbar"])]
        if op["kind"] == "pair":
            return self.m.star(X, self.members[(op["fam"], tuple(op["b"]), op["hbar"])])
        H = self._hamiltonian(op["fam"], op["hbar"])
        return self.m.star(H, X) if op["kind"] == "HF" else self.m.star(X, H)

    def _eigenvalue(self, fam: str, idx, hbar: float) -> complex:
        sp = self._space(fam, hbar)
        model = self._model(fam)
        if fam == "W":
            return self.m.eigenvalue(model, sp, idx[0])
        if fam in ("F+", "F-"):
            return self.m.eigenvalue(model, sp, idx[0], fam[1])
        return self.m.eigenvalue(model, sp, tuple(idx), "+", "F" if fam == "Fd" else "G")

    def check(self, i: int, op, P) -> Tuple[Check, str]:
        fam, hbar = op["fam"], op["hbar"]
        X = self.members[(fam, tuple(op["a"]), hbar)]
        if op["kind"] != "pair":
            E = self._eigenvalue(fam, op["a"], hbar)
            res = _natural_norm(P - X.scaled(E), hbar) / (abs(E) * _natural_norm(X, hbar))
            return Check(res <= TOL_EIGEN, f"eigen residual {res:.3g}"), _function_digest(P)
        n_dof = 2 if fam == "Fd" else 1
        c = (2 * math.pi * hbar) ** n_dof
        same = op["a"] == op["b"]
        ref = X if same else X.scaled(0.0)
        res = _natural_norm(P.scaled(c) - ref, hbar) / _natural_norm(X, hbar)
        integral = c * P.gaussian_integral()
        err = abs(integral - (1.0 if same else 0.0))
        ok = res <= TOL_ORTHOGONALITY and err <= TOL_INTEGRAL
        return Check(ok, f"coefficient residual {res:.3g}, integral error {err:.3g}"), \
            _function_digest(P)

    def known_defect(self, op) -> bool:
        return op["hbar"] not in FAMILY_HBARS_EXACT


class RandomStar(Workload):
    """Star products over a pool of random poly x Gaussian functions."""

    def __init__(self, mqds, spec):
        super().__init__(mqds, spec)
        self.pool_data = spec["pass"]["pool"]
        self.pool: List = []
        self.oracle_checks = 0

    def _function(self, data):
        import numpy as np
        m = self.m
        space = m.VarSpace(data["n"], 1.0)
        terms = []
        for t in data["terms"]:
            poly = m.Poly(space.dim, {tuple(e): complex(*c) for e, c in t["poly"]})
            if t["A"] is None:
                expo = m.QuadExponent.zero(space.dim)
            else:
                A = np.array([[complex(*v) for v in row] for row in t["A"]])
                expo = m.QuadExponent(A, np.array([complex(*v) for v in t["b"]]))
            terms.append(m.QGTerm(poly, expo))
        return m.QGFunction(space, terms)

    def setup(self, ops) -> None:
        self.pool = [self._function(f) for f in self.pool_data]

    def run(self, i: int, op):
        return self.m.star(self.pool[op["f"]], self.pool[op["g"]])

    def check(self, i: int, op, P) -> Tuple[Check, str]:
        """conj(f*g) = conj(g)*conj(f) for every op; the quadrature oracle at
        the op's point for the first ORACLE_CHECKS N = 1 Gaussian pairs."""
        f, g = self.pool[op["f"]], self.pool[op["g"]]
        rhs = self.m.star(g.conjugate(), f.conjugate())
        lhs = P.conjugate()
        scale = max(lhs.coeff_norm(), rhs.coeff_norm())
        res = 0.0 if scale == 0 else (lhs - rhs).coeff_norm() / scale
        if res > TOL_ORTHOGONALITY:
            return Check(False, f"conjugation residual {res:.3g}"), _function_digest(P)
        if self.oracle_checks < ORACLE_CHECKS and f.space.n_dof == 1 \
                and not any(t.expo.is_zero() for t in f.terms + g.terms):
            self.oracle_checks += 1
            closed = P.evaluate(op["z"])
            try:
                quad = self.m.quadrature_star_oracle(f, g, op["z"])
                rel = abs(closed - quad) / max(abs(closed), abs(quad), 1e-300)
                detail = f"oracle relative error {rel:.3g}"
            except self.m.OracleNotConverged as exc:
                rel, detail = math.inf, f"oracle raised {exc!r}"
            if rel > TOL_ORACLE_RANDOM:
                # Open defect: the oracle caps its box at a half-width of 8
                # and refines only its point count, so it does not see its
                # own truncation (2.5e-5 at random_star seed 986969583, pass
                # 0, op 1).  The miss is the oracle's when the closed form
                # agrees with a quadrature on a box that holds every tail.
                wide, converged = _wide_quadrature(f, g, op["z"])
                rel_wide = abs(closed - wide) / max(abs(closed), abs(wide), 1e-300)
                known = converged and rel_wide <= TOL_WIDE
                return Check(False, f"{detail}; wide-box quadrature {rel_wide:.3g}"
                             f"{'' if converged else ' (not converged)'}", known=known), \
                    _function_digest(P)
        return Check(True), _function_digest(P)


def _grid_values(f, x, p):
    """f on the tensor grid x (rows) by p (columns), N = 1, from its terms."""
    import numpy as np
    X, Pm = x[:, None], p[None, :]
    out = np.zeros((len(x), len(p)), dtype=complex)
    for t in f.terms:
        A, b, c = t.expo.A, t.expo.b, t.expo.c
        q = c - 0.5 * (A[0, 0] * X * X + 2.0 * A[0, 1] * X * Pm + A[1, 1] * Pm * Pm) \
            + b[0] * X + b[1] * Pm
        poly = sum(coef * X ** e[0] * Pm ** e[1] for e, coef in t.poly.terms.items())
        out += poly * np.exp(q)
    return out


def _wide_quadrature(f, g, z) -> Tuple[complex, bool]:
    """(f*g)(z) for N = 1 decaying f, g by Gauss-Legendre quadrature of the
    twisted-product integral

        (1 / (pi hbar)^2) int f(x1, p1) g(x2, p2)
            exp(2i/hbar [(x1 - x)(p2 - p) - (p1 - p)(x2 - x)]),

    on a box sized from every term's peak and decay rate.  It uses only the
    terms' coefficients, not mqds.star.  Returns the value and whether two
    point counts agree to TOL_WIDE / 10."""
    import numpy as np
    hbar = f.space.hbar
    terms = f.terms + g.terms
    floor = min(float(np.linalg.eigvalsh(t.expo.A.real).min()) for t in terms)
    reach = max(float(np.abs(np.linalg.solve(t.expo.A.real, t.expo.b.real)).max()) for t in terms)
    x, p = (float(v) for v in z)
    half = reach + math.sqrt(2.0 * WIDE_TAIL / floor) + max(abs(x), abs(p))
    base = int(4.6 * half * half / (math.pi * hbar)) + 60
    vals = []
    for points in (base, int(base * WIDE_REFINE)):
        nodes, weights = np.polynomial.legendre.leggauss(points)
        nodes, weights = nodes * half, weights * half
        w2 = weights[:, None] * weights[None, :]
        F = _grid_values(f, nodes, nodes) * w2
        G = _grid_values(g, nodes, nodes) * w2
        U = np.exp(2j / hbar * np.outer(nodes - x, nodes - p))    # (x1, p2)
        V = np.exp(-2j / hbar * np.outer(nodes - p, nodes - x))   # (p1, x2)
        vals.append(complex(np.sum((V.T @ (F.T @ U)) * G)) / (math.pi * hbar) ** 2)
    converged = abs(vals[1] - vals[0]) <= 0.1 * TOL_WIDE * max(abs(vals[1]), 1e-300)
    return vals[1], converged


class CliMix(Workload):
    """In-process `mqds eigenfunction` and `mqds oracle` calls writing files."""

    def _path(self, i: int, op) -> str:
        ext = "json" if "json" in op["argv"] else "csv"
        return os.path.join(self.outdir, f"{self.tag}-out{i}.{ext}")

    def run(self, i: int, op):
        return self.cli.main(list(op["argv"]) + ["--out", self._path(i, op)])

    @staticmethod
    def _arg(argv, name, default=None):
        for j, a in enumerate(argv):
            if a == name:
                return argv[j + 1]
            if a.startswith(name + "="):
                return a.split("=", 1)[1]
        return default

    def _grid_axes(self, spec: str):
        axes = {}
        for part in spec.split(","):
            name, rng = part.split("=", 1)
            lo, hi, pts = rng.split(":")
            axes[name] = (float(lo), float(hi), int(pts))
        return axes

    def op_extra(self, i: int, op) -> Dict:
        if op["argv"][0] != "eigenfunction":
            return {}
        return {"points": math.prod(a[2] for a in self._grid_axes(self._arg(op["argv"], "--grid")).values())}

    def known_defect(self, op) -> bool:
        argv = op["argv"]
        return (argv[0] == "oracle"
                and (self._arg(argv, "--f"), self._arg(argv, "--g")) in ORACLE_LADDER
                and float(self._arg(argv, "--hbar")) not in ORACLE_LADDER_HBARS_EXACT)

    def check(self, i: int, op, rc) -> Tuple[Check, str]:
        if rc != 0:
            return Check(False, f"exit code {rc}"), ""
        with open(self._path(i, op), "rb") as fh:
            raw = fh.read()
        digest = _sha(raw)
        if op["argv"][0] == "oracle":
            rows = raw.decode().strip().splitlines()[1:]
            npts = len(self._arg(op["argv"], "--points").split(";"))
            worst = max(float(r.split(",")[-1]) for r in rows)
            ok = len(rows) == npts and worst <= TOL_ORACLE
            return Check(ok, f"{len(rows)} rows, worst rel_error {worst:.3g}"), digest
        return self._check_grid(i, op, raw), digest

    def _check_grid(self, i: int, op, raw: bytes) -> Check:
        import numpy as np
        argv = op["argv"]
        model = self._arg(argv, "--model")
        family, sign = self._arg(argv, "--family"), self._arg(argv, "--sign")
        n, mm = int(self._arg(argv, "--n")), int(self._arg(argv, "--m"))
        hbar = float(self._arg(argv, "--hbar", "1.0"))
        m = self.m
        if model == "oscillator":
            sp = m.VarSpace(1, hbar)
            f = m.oscillator_wigner(n, sp)
        elif model == "damped_toy":
            sp = m.VarSpace(1, hbar)
            f = m.toy_resonant(n, sign, sp)
        else:
            sp = m.VarSpace(2, hbar)
            f = m.dho_g(n, mm, sp) if family == "G" else m.dho_f(n, mm, sign, sp)
        names = sp.var_names()
        axes = self._grid_axes(self._arg(argv, "--grid"))
        lines = [np.linspace(*axes[v]) if v in axes else np.array([0.0]) for v in names]
        shape = tuple(len(a) for a in lines)
        total = math.prod(shape)
        if "json" in argv:
            data = json.loads(raw)
            values = [complex(*v) for v in data["values"]]
            points = None
        else:
            rows = raw.decode().strip().splitlines()
            if rows[0] != ",".join(names) + ",re,im":
                return Check(False, f"bad CSV header {rows[0]!r}")
            parsed = [[float(v) for v in r.split(",")] for r in rows[1:]]
            values = [complex(r[-2], r[-1]) for r in parsed]
            points = [r[:-2] for r in parsed]
        if len(values) != total:
            return Check(False, f"{len(values)} values for {total} grid points")
        peak = max(abs(v) for v in values) or 1.0
        pick = random.Random(f"{argv}").sample(range(total), min(GRID_SAMPLES, total))
        worst = 0.0
        for j in pick:
            multi = np.unravel_index(j, shape)
            z = np.array([lines[k][multi[k]] for k in range(len(names))])
            if points is not None and np.abs(np.array(points[j]) - z).max() > 1e-12 * max(1.0, np.abs(z).max()):
                return Check(False, f"row {j} has point {points[j]}, expected {list(z)}")
            worst = max(worst, abs(values[j] - f.evaluate(z)) / peak)
            if model == "oscillator":
                xi = 2.0 * (z[0] ** 2 + z[1] ** 2) / hbar
                ref = ((-1.0) ** n / (math.pi * hbar) * math.exp(-xi / 2)
                       * np.polynomial.laguerre.lagval(xi, [0.0] * n + [1.0]))
                worst = max(worst, abs(values[j] - ref) / peak)
        return Check(worst <= TOL_GRID, f"worst sampled error {worst:.3g} of peak")


WORKLOADS = {"verify_all": VerifyAll, "family_star": FamilyStar,
             "random_star": RandomStar, "cli_mix": CliMix}


# ---------------------------------------------------------------------------
# the pass
# ---------------------------------------------------------------------------

def _probe_kernel() -> int:
    """Fixed interpreter work, of the dict-and-complex kind Poly.mul does."""
    acc: Dict[Tuple[int, int], complex] = {}
    for i in range(600):
        key = (i % 37, i % 23)
        acc[key] = acc.get(key, 0j) + complex(i, 1.0) * 1.000001
    return len(acc)


class SpeedProbe:
    """Times _probe_kernel every PROBE_PERIOD_S from a thread of the pass.

    On a shared host, other tenants slow this CPU by up to 2.3x in phases
    that last from seconds to minutes, so raw times of one workload spread
    by 0.23-0.30 (IQR/median) over ten runs.  The pass is pinned to one CPU
    (run.py), so the probe sees the speed the ops see; an op's time divided
    by its slowdown reads as its time at PROBE_REF_S.  The kernel is short
    and holds the interpreter lock, so it runs between two switch intervals
    of the op and adds about 2% to op times, alike for every commit."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.times: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def _loop(self) -> None:
        clock = time.perf_counter
        while not self._stop.wait(PROBE_PERIOD_S):
            t0 = clock()
            _probe_kernel()
            self.starts.append(t0)
            self.times.append(clock() - t0)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self, t0: float, t1: float) -> float:
        """Median probe time around [t0, t1] over PROBE_REF_S; with no probe
        that close, the nearest probe's."""
        lo = bisect.bisect_left(self.starts, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + PROBE_WINDOW_S)
        if not self.times:
            raise RuntimeError("the speed probe took no sample")
        if hi == lo:
            return self.times[min(lo, len(self.times) - 1)] / PROBE_REF_S
        return statistics.median(self.times[lo:hi]) / PROBE_REF_S


def run_pass(spec: Dict) -> Dict:
    probe = SpeedProbe()
    start = time.perf_counter()
    probe.start()
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    import mqds
    import mqds.cli  # noqa: F401 - the package does not import its CLI
    if not os.path.realpath(mqds.__file__).startswith(src + os.sep):
        raise RuntimeError(f"mqds imported from {mqds.__file__}, not from {src}")
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ops = spec["pass"]["ops"]
    work = WORKLOADS[spec["workload"]](mqds, spec)
    work.setup(ops)
    setup_end = time.perf_counter()

    spans: List[Tuple[float, float]] = []
    outputs: List[Tuple[object, str | None]] = []
    clock = time.perf_counter
    try:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            t0 = clock()
            try:
                out, err = work.run(i, op), None
            except Exception as exc:  # noqa: BLE001 - an op that raises counts as failed
                out, err = None, repr(exc)
            spans.append((t0, clock()))
            outputs.append((out, err))
    finally:
        probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_raw_s = setup_end - start
    setup_s = setup_raw_s / probe.slowdown(start, setup_end)
    op_raw_s = [t1 - t0 for t0, t1 in spans]
    op_s = [(t1 - t0) / probe.slowdown(t0, t1) for t0, t1 in spans]

    layers = None
    if tracer is not None:
        tracer.op = -1
        tracer.uninstall()
        layers = tracer.layer_totals()
        tracer.write_spans(spec["spans_path"])

    ok, known, details, digests, extra = [], [], [], [], []
    for i, (op, (out, err)) in enumerate(zip(ops, outputs)):
        extra.append(work.op_extra(i, op))
        if err is not None:
            verdict, digest = Check(False, err), ""
        else:
            try:
                verdict, digest = work.check(i, op, out)
            except Exception as exc:  # noqa: BLE001 - a check that raises fails the op
                verdict, digest = Check(False, f"check raised {exc!r}"), ""
        ok.append(verdict.ok)
        known.append(not verdict.ok and (verdict.known or work.known_defect(op)))
        details.append("" if verdict.ok else verdict.detail)
        digests.append(digest)
    return {"setup_s": setup_s, "setup_raw_s": setup_raw_s, "op_s": op_s, "op_raw_s": op_raw_s,
            "probes": len(probe.times), "ok": ok, "known": known, "details": details,
            "digests": digests, "extra": extra, "peak_rss_mb": peak_rss_mb, "layers": layers}


def main(argv: List[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run_pass(spec)
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

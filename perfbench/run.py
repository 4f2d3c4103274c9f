"""Seeded, closed-loop benchmark of mqds.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of verify_all, family_star, random_star, cli_mix, or ``all``
(every workload in turn).  A run executes passes of the workload's seeded
op stream, each pass in a fresh interpreter capped at 4 GiB of address
space and pinned to one CPU, one op at a time, until the ops have been
timed for S seconds.  Outputs are checked after each pass's timed window.

Times are scaled to the host's full speed: each pass runs a speed probe
beside its ops (worker.SpeedProbe) and divides every op's time, and its
set-up time, by the slowdown the probe saw around it.  The record also
gives the times as measured, and their ratio, host_slowdown.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every pass twice,
untraced then traced, and reports the per-layer metrics (per pass), the
tracing overhead, and whether tracing changed any output.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the full record of the run (commit,
versions, thread settings, op-list digest, op counts, percentiles) is
printed before it and written to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

AS_LIMIT_BYTES = 4 << 30        # ROADMAP item 2 used a 4 GB ulimit -v
START_BUDGET_S = 100.0          # start no pass after this much wall time
RUN_LIMIT_S = 170.0             # a pass still running at this point is killed
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s",
             "op_p50_ms": "ms", "op_tail_ms": "ms"}

VERIFY_CHECKS = ("eigen_residual", "star_orthogonality", "marginal_delta", "normalization",
                 "identity_resolution", "evolution_match", "complex_scaling_match",
                 "koopman_zero_mode", "conjugation_symmetry", "pair_transform_match",
                 "classical_limit")

LAYER_UNITS = {
    "poly.mul.calls": "count/pass", "poly.mul.term_pairs": "count/pass",
    "poly.mul.self_s": "s/pass", "poly.mul.max_terms": "terms",
    "gausspoly.compose.calls": "count/pass", "gausspoly.compose.self_s": "s/pass",
    "gausspoly.moments.self_s": "s/pass",
    "gausspoly.ctx.lookups": "count/pass", "gausspoly.ctx.builds": "count/pass",
    "gausspoly.ctx.hit_ratio": "ratio", "gausspoly.ctx.build_s": "s/pass",
    "gausspoly.ctx.evictions": "count/pass",
    "gausspoly.integrate.calls": "count/pass", "gausspoly.integrate.self_s": "s/pass",
    "star.star.calls": "count/pass", "star.star.self_s": "s/pass",
    "star.pairs.series": "count/pass", "star.pairs.compose": "count/pass",
    "star.oracle.calls": "count/pass", "star.oracle.self_s": "s/pass",
    "algebra.evaluate.calls": "count/pass", "algebra.evaluate_grid.points": "count/pass",
    "algebra.evaluate_grid.self_s": "s/pass", "cli.main.self_s": "s/pass",
    "cli.bytes_out": "B/pass",
    "algebra.construct.calls": "count/pass", "algebra.construct.self_s": "s/pass",
    "models.build.calls": "count/pass", "models.build.self_s": "s/pass",
    "poly.pruned.dropped_terms": "count/pass",
    **{f"verify.check.{name}.s": "s/pass" for name in VERIFY_CHECKS},
    "trace.passes": "count", "trace.overhead_s": "s/pass", "trace.overhead_share": "ratio",
    "trace.changed_outputs": "count",
}


def _worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    cap = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            env[var] = str(max(1, min(int(env.get(var, "1")), cap)))
        except ValueError:
            env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(HERE), str(SRC)])
    env["MQDS_LOG"] = "error"
    return env


def _confine_worker() -> None:
    """Cap the pass's address space, and pin it to one CPU so that its speed
    probe (worker.SpeedProbe) runs where its ops run."""
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT_BYTES, AS_LIMIT_BYTES))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "mqds").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class RunFailed(Exception):
    """No op could be timed: there is no result to report."""


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float, rundir: Path):
        self.workload, self.seed, self.seconds, self.rundir = workload, seed, seconds, rundir
        self.passes = workloads.plan(workload, seed)
        self.digest = workloads.digest(self.passes)
        self.env = _worker_env()
        self.start = time.perf_counter()

    def _elapsed(self) -> float:
        return time.perf_counter() - self.start

    def run_pass(self, k: int, trace: bool) -> Dict:
        tag = f"p{k}{'t' if trace else 'u'}"
        spec = {"workload": self.workload, "pass": self.passes[k], "src": str(SRC),
                "trace": trace, "outdir": str(self.rundir), "tag": tag,
                "spans_path": str(OUT / "spans" / f"{self.workload}-pass{k}.csv")}
        spec_path, out_path = self.rundir / f"{tag}-spec.json", self.rundir / f"{tag}-out.json"
        spec_path.write_text(json.dumps(spec))
        n_ops = len(self.passes[k]["ops"])
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path), str(out_path)],
                                  env=self.env, cwd=str(ROOT), preexec_fn=_confine_worker,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                                  timeout=max(5.0, RUN_LIMIT_S - self._elapsed()))
        except subprocess.TimeoutExpired:
            return {"crashed": f"pass {k} timed out", "n_ops": n_ops}
        if proc.returncode != 0 or not out_path.is_file():
            return {"crashed": f"pass {k} exited {proc.returncode}: {proc.stderr[-1500:]}",
                    "n_ops": n_ops}
        rec = json.loads(out_path.read_text())
        rec["n_ops"] = n_ops
        return rec

    def more(self, k: int, timed: float) -> bool:
        return k < len(self.passes) and (k == 0 or timed < self.seconds) \
            and self._elapsed() < START_BUDGET_S


def _tail(values: List[float]):
    """Highest listed percentile with at least 10 ops beyond it, else the max."""
    import numpy as np
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            return p, float(np.percentile(values, p))
    return 100.0, max(values)


def _tally(recs: List[Dict]) -> Dict:
    attempted = sum(r["n_ops"] for r in recs)
    failed = known = 0
    crashes, failures = [], []
    for r in recs:
        if "crashed" in r:
            failed += r["n_ops"]
            crashes.append(r["crashed"])
            continue
        for ok, kd, detail in zip(r["ok"], r["known"], r["details"]):
            if not ok:
                failed += 1
                known += kd
                if not kd and len(failures) < 10:
                    failures.append(detail)
    return {"attempted": attempted, "failed": failed, "failed_known_defect": known,
            "crashes": crashes, "unexpected_failures": failures,
            "correct": not crashes and failed == known}


def timed_run(runner: Runner) -> Dict:
    recs: List[Dict] = []
    timed, k = 0.0, 0
    while runner.more(k, timed):
        rec = runner.run_pass(k, trace=False)
        recs.append(rec)
        if "crashed" in rec:
            break
        timed += sum(rec["op_s"])
        k += 1
    good = [r for r in recs if "crashed" not in r]
    op_s = [t for r in good for t in r["op_s"]]
    tally = _tally(recs)
    if not op_s:
        raise RunFailed("; ".join(tally["crashes"]) or "no op was timed")
    raw_s = [t for r in good for t in r["op_raw_s"]]
    p_tail, tail = _tail(op_s)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in good),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in good),
        "ops_per_s": len(op_s) / sum(op_s),
        "op_p50_ms": 1e3 * statistics.median(op_s),
        "op_tail_ms": 1e3 * tail,
    }
    info = {"passes": len(recs), "ops_timed": len(op_s), "timed_s": sum(op_s),
            "tail_percentile": p_tail,
            "tail_ops_beyond": sum(1 for t in op_s if t > tail),
            "setup_s_samples": [r["setup_s"] for r in good],
            "measured": {"setup_s": statistics.median(r["setup_raw_s"] for r in good),
                         "ops_per_s": len(raw_s) / sum(raw_s),
                         "op_p50_ms": 1e3 * statistics.median(raw_s),
                         "op_tail_ms": 1e3 * _tail(raw_s)[1]},
            "host_slowdown": sum(raw_s) / sum(op_s),
            "probes": sum(r["probes"] for r in good),
            "failed_share": tally["failed"] / max(tally["attempted"], 1)}
    if runner.workload == "verify_all":
        info["verify_s"] = statistics.median(op_s)
    points = [(e.get("points"), t) for r in good for e, t in zip(r["extra"], r["op_s"])]
    grid = [(p, t) for p, t in points if p]
    if grid:
        info["grid_points_per_s"] = sum(p for p, _ in grid) / sum(t for _, t in grid)
    return {"tally": tally, "metrics": metrics, "info": info}


def traced_run(runner: Runner) -> Dict:
    recs_u: List[Dict] = []
    recs_t: List[Dict] = []
    timed, k = 0.0, 0
    while runner.more(k, timed):
        for trace, recs in ((False, recs_u), (True, recs_t)):
            rec = runner.run_pass(k, trace=trace)
            recs.append(rec)
            timed += sum(rec.get("op_s", ()))
        if "crashed" in recs_u[-1] or "crashed" in recs_t[-1]:
            break
        k += 1
    tally = _tally(recs_u + recs_t)
    pairs = [(u, t) for u, t in zip(recs_u, recs_t) if "crashed" not in u and "crashed" not in t]
    changed = sum(du != dt for u, t in pairs for du, dt in zip(u["digests"], t["digests"]))
    if changed:
        tally["correct"] = False
    if not pairs:
        raise RunFailed("; ".join(tally["crashes"]) or "no pass completed")
    n = len(pairs)
    totals: Dict[str, float] = {}
    for _, t in pairs:
        for key, value in t["layers"].items():
            if key.endswith("max_terms"):
                totals[key] = max(totals.get(key, 0.0), value)
            else:
                totals[key] = totals.get(key, 0.0) + value
    untraced = sum(sum(u["op_s"]) for u, _ in pairs)
    traced = sum(sum(t["op_s"]) for _, t in pairs)
    lookups = totals.get("gausspoly.ctx.lookup.calls", 0.0)
    builds = totals.get("gausspoly.ctx.build.calls", 0.0)
    aliases = {"gausspoly.ctx.lookups": "gausspoly.ctx.lookup.calls",
               "gausspoly.ctx.builds": "gausspoly.ctx.build.calls",
               "gausspoly.ctx.build_s": "gausspoly.ctx.build.self_s"}
    metrics = {}
    for name in LAYER_UNITS:
        if name.startswith("trace.") or name == "gausspoly.ctx.hit_ratio":
            continue
        value = totals.get(aliases.get(name, name), 0.0)
        metrics[name] = value if name.endswith("max_terms") else value / n
    metrics["gausspoly.ctx.hit_ratio"] = 1.0 - builds / lookups if lookups else 0.0
    metrics["trace.passes"] = float(len(pairs))
    metrics["trace.overhead_s"] = (traced - untraced) / n
    metrics["trace.overhead_share"] = traced / untraced - 1.0 if untraced else 0.0
    metrics["trace.changed_outputs"] = float(changed)
    info = {"passes": len(pairs), "untraced_s": untraced, "traced_s": traced,
            "ctx_hit_ratio_base": {"lookups": lookups, "builds": builds}}
    return {"tally": tally, "metrics": metrics, "info": info}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    import numpy
    rundir = OUT / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, seed, seconds, rundir)
        res = traced_run(runner) if trace else timed_run(runner)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    env = runner.env
    units = LAYER_UNITS if trace else E2E_UNITS
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "commit": _commit(), "source_sha256": _source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "threads": {v: env[v] for v in THREAD_VARS},
        "address_space_limit_bytes": AS_LIMIT_BYTES,
        "op_list_sha256": runner.digest,
        **{k: v for k, v in res["tally"].items()},
        "info": res["info"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()},
    }
    (OUT / "results" / f"{workload}-trace{int(trace)}.json").write_text(json.dumps(record, indent=2))
    return record


def _print_record(record: Dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"commit={record['commit']} python={record['python']} numpy={record['numpy']} "
          f"nproc={record['nproc']} threads={record['threads']}")
    print(f"#   op list sha256 {record['op_list_sha256']}")
    print(f"#   attempted {record['attempted']} failed {record['failed']} "
          f"(known defect {record['failed_known_defect']}) correct {record['correct']}")
    for key, value in record["info"].items():
        print(f"#   {key}: {value}")
    for name, m in record["metrics"].items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    for line in record["crashes"] + record["unexpected_failures"]:
        print(f"#   FAILED: {line}")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mqds" / "__init__.py").is_file():
        print(f"error: no mqds sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            record = run_one(name, args.seed, args.seconds, bool(args.trace))
        except RunFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        _print_record(record)
        results[name] = {"correct": record["correct"], "attempted": record["attempted"],
                         "failed": record["failed"], "metrics": record["metrics"]}
    sys.stdout.flush()
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

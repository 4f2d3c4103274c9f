"""Command-line front end: spectra, eigenfunction grids, verification, oracle.

Exit codes: 0 success, 1 verification failure, 2 usage error (including an
input the engine has no answer for, such as a star product that does not
exist), 3 I/O error, 4 oracle non-convergence.  Diagnostics go to stderr
(level set by MQDS_LOG); data goes to stdout or --out.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import logging
import math
import os
import sys
from typing import Dict, Iterable, Iterator, List, Sequence, TextIO, Tuple

import numpy as np

from .algebra import QGFunction, VarSpace
from .gausspoly import GaussianCompositionSingular, NonIntegrable
from .models import (ModelId, UnsupportedPair, dho_f, dho_g, hamiltonian, oscillator_wigner,
                     spectrum, toy_resonant)
from .star import EvolutionSingular, OracleNotConverged, damped_pair, quadrature_star_oracle, star
from .verify import CHECK_REGISTRY, run_all

log = logging.getLogger("mqds")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_ORACLE = 4

# the most rows a table may have: grid points or spectrum rows
_MAX_ROWS = 10**7
# the most grid points evaluated and formatted at once by `mqds eigenfunction`
_SLAB_POINTS = 200_000

_MODEL_NAMES = {
    "oscillator": "harmonic_oscillator",
    "harmonic_oscillator": "harmonic_oscillator",
    "damped_toy": "damped_toy",
    "toy": "damped_toy",
    "damped_ho": "damped_ho",
    "dho": "damped_ho",
}


class UsageError(Exception):
    pass


def _setup_logging() -> None:
    level = os.environ.get("MQDS_LOG", "warn").lower()
    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(stream=sys.stderr, level=levels.get(level, logging.WARNING),
                        format="mqds:%(levelname)s: %(message)s")


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _model_from_args(args) -> ModelId:
    kind = _MODEL_NAMES.get(args.model)
    if kind is None:
        raise UsageError(f"unknown model '{args.model}'")
    return ModelId(kind, omega=args.omega, gamma=args.gamma)


def _parse_tolerances(spec: str | None) -> Dict[str, float]:
    out: Dict[str, float] = {}
    if not spec:
        return out
    for item in spec.split(","):
        if not item:
            continue
        if "=" not in item:
            raise UsageError(f"bad tolerance override '{item}' (expected name=value)")
        name, value = item.split("=", 1)
        if name not in CHECK_REGISTRY:
            raise UsageError(f"unknown check '{name}' in tolerance override")
        out[name] = float(value)
        if not 0 <= out[name] < math.inf:
            raise UsageError(f"bad tolerance override '{item}' (expected a finite value >= 0)")
    return out


@contextlib.contextmanager
def _output(out_path: str | None) -> Iterator[TextIO]:
    """The data stream: the file at `out_path`, or stdout."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(text: str, out: TextIO) -> None:
    """Write one piece of data: the one write path, whose bytes
    perfbench/tracer.py counts."""
    out.write(text)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    model = _model_from_args(args)
    if min(args.max_n, args.max_m) < 0:
        raise UsageError("--max-n and --max-m must be >= 0")
    if (args.max_n + 1) * (args.max_m + 1 if model.n_dof == 2 else 1) > _MAX_ROWS:
        raise UsageError("spectrum exceeds 10^7 rows")
    sign = args.sign
    rows: List[Tuple[Tuple[int, ...], complex]] = []
    if model.n_dof == 1:
        for n in range(args.max_n + 1):
            rows.append(((n,), args.hbar * spectrum(model, (n,), sign)))
    else:
        for n in range(args.max_n + 1):
            for m in range(args.max_m + 1):
                rows.append(((n, m), args.hbar * spectrum(model, (n, m), sign, args.family)))

    meta = {"model": model.kind, "family": args.family, "sign": sign,
            "hbar": args.hbar, "omega": args.omega, "gamma": args.gamma}
    if args.format == "json":
        data = {"metadata": meta,
                "rows": [{"indices": list(idx), "re": ev.real, "im": ev.imag}
                         for idx, ev in rows]}
        text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    else:
        head = "n,re,im" if model.n_dof == 1 else "n,m,re,im"
        lines = [head]
        for idx, ev in rows:
            lines.append(",".join([str(i) for i in idx] + [_fmt(ev.real), _fmt(ev.imag)]))
        text = "\n".join(lines) + "\n"
    with _output(args.out) as out:
        _emit(text, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# eigenfunction grids
# ---------------------------------------------------------------------------

def _parse_grid(spec: str, space: VarSpace) -> List[Tuple[str, np.ndarray]]:
    """Parse 'x=-3:3:65,p=-3:3:65' into named axes over the space variables."""
    names = space.var_names()
    axes: List[Tuple[str, np.ndarray]] = []
    total = 1
    for part in spec.split(","):
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"bad grid axis '{part}' (expected name=min:max:points)")
        name, rng = part.split("=", 1)
        if name not in names:
            raise UsageError(f"unknown grid variable '{name}' (have {names})")
        if name in dict(axes):
            raise UsageError(f"grid variable '{name}' given twice")
        bits = rng.split(":")
        if len(bits) != 3:
            raise UsageError(f"bad grid range '{rng}' (expected min:max:points)")
        lo, hi, pts = float(bits[0]), float(bits[1]), int(bits[2])
        if pts < 2:
            raise UsageError("grid axes need at least 2 points")
        if lo >= hi:
            raise UsageError("grid axis needs min < max")
        total *= pts
        if total > _MAX_ROWS:
            raise UsageError("grid exceeds 10^7 points")
        axes.append((name, np.linspace(lo, hi, pts)))
    if not axes:
        raise UsageError("empty grid specification")
    return axes


# (model, family) -> builder(indices, sign, space): the families each model has
_BUILTINS = {
    ("harmonic_oscillator", "W"): lambda idx, sign, space: oscillator_wigner(idx[0], space),
    ("damped_toy", "F"): lambda idx, sign, space: toy_resonant(idx[0], sign, space),
    ("damped_ho", "F"): lambda idx, sign, space: dho_f(idx[0], idx[1], sign, space),
    ("damped_ho", "G"): lambda idx, sign, space: dho_g(idx[0], idx[1], space),
}


def _slabs(shape: Sequence[int]) -> Iterator[Tuple[slice, ...]]:
    """Consecutive blocks of a row-major grid, in row order, each a tensor
    grid of at most _SLAB_POINTS points: rows of the first axis whose
    trailing block fits, or else one first-axis row split the same way."""
    if math.prod(shape) <= _SLAB_POINTS:
        yield tuple(slice(None) for _ in shape)
        return
    inner = math.prod(shape[1:])
    if inner <= _SLAB_POINTS:
        step = _SLAB_POINTS // inner
        for i in range(0, shape[0], step):
            yield (slice(i, i + step), *(slice(None) for _ in shape[1:]))
        return
    for i in range(shape[0]):
        for rest in _slabs(shape[1:]):
            yield (slice(i, i + 1), *rest)


def _write_csv(names: List[str], grids: List[np.ndarray],
               slabs: Iterable[Tuple[Tuple[slice, ...], np.ndarray]], out: TextIO) -> None:
    """Rows x-major, as the values are (the last axis varies fastest); each
    row is one %-format of its coordinates, formatted once per axis node and
    joined, and of its value."""
    coords = [[_fmt(c) for c in g.tolist()] for g in grids]
    _emit(",".join(names) + ",re,im\n", out)
    for sl, values in slabs:
        prefixes = map(",".join, itertools.product(*(c[s] for c, s in zip(coords, sl))))
        _emit("".join(map("%s,%.17g,%.17g\n".__mod__,
                          zip(prefixes, values.real.tolist(), values.imag.tolist()))), out)


_JSON_PAIR_SEP = "\n    ],\n    [\n      "


def _write_json(data: Dict, slabs: Iterable[np.ndarray], out: TextIO) -> None:
    """json.dumps({**data, "values": [[re, im], ...]}, indent=2, sort_keys=True)
    + newline, for keys of `data` that sort before "values" and at least one
    value, written a slab of values at a time.

    The indented encoder walks every pair in Python; here each pair is one
    %-format of float reprs, json's own spelling of a finite float, and
    json's NaN and Infinity replace Python's nan and inf where they occur.
    """
    head = json.dumps(data, indent=2, sort_keys=True)[:-2]       # drop "\n}"
    _emit(head + ',\n  "values": [\n    [\n      ', out)
    sep = ""
    for values in slabs:
        body = _JSON_PAIR_SEP.join(map("%r,\n      %r".__mod__,
                                       zip(values.real.tolist(), values.imag.tolist())))
        if not np.isfinite(values).all():
            body = body.replace("nan", "NaN").replace("inf", "Infinity")
        _emit(sep + body, out)
        sep = _JSON_PAIR_SEP
    _emit("\n    ]\n  ]\n}\n", out)


def cmd_eigenfunction(args) -> int:
    model = _model_from_args(args)
    build = _BUILTINS.get((model.kind, args.family))
    if build is None:
        raise UsageError(f"model '{model.kind}' has no family '{args.family}'")
    space = VarSpace(model.n_dof, args.hbar)
    indices = (args.n,) if model.n_dof == 1 else (args.n, args.m)
    f = build(indices, args.sign, space)
    axes = _parse_grid(args.grid, space)

    names = space.var_names()
    axis_by_name = dict(axes)
    grids = [axis_by_name.get(nm, np.array([0.0])) for nm in names]
    # one evaluation per slab, so that no full-grid array or string exists
    slabs = ((sl, f.evaluate_grid([g[s] for g, s in zip(grids, sl)]).ravel())
             for sl in _slabs([len(g) for g in grids]))

    meta = {"model": model.kind, "family": args.family, "indices": list(indices),
            "sign": args.sign, "hbar": args.hbar,
            "parameters": {"omega": args.omega, "gamma": args.gamma}}
    with _output(args.out) as out:
        if args.format == "json":
            data = {
                "spec": {nm: {"min": float(a[0]), "max": float(a[-1]), "points": len(a)}
                         for nm, a in axes},
                "metadata": meta,
            }
            _write_json(data, (values for _, values in slabs), out)
        else:
            _write_csv(names, grids, slabs, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    selectors = None
    if args.suite != "all":
        selectors = [s for s in args.suite.split(",") if s]
        for s in selectors:
            if s not in CHECK_REGISTRY:
                raise UsageError(f"unknown check '{s}' (registry: {', '.join(CHECK_REGISTRY)})")
    overrides = _parse_tolerances(args.tolerance)
    log.info("running checks: %s", selectors or "all")
    report = run_all(selectors=selectors, seed=args.seed, tolerance_overrides=overrides,
                     hbar=args.hbar, omega=args.omega, gamma=args.gamma)
    with _output(args.out) as out:
        _emit(report.to_json() + "\n", out)
    for e in report.failed_entries():
        log.error("failed: %s %s residual=%.3g tol=%.3g",
                  e.name, e.params, e.residual, e.tolerance)
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def _named_function(name: str, space: VarSpace, args) -> QGFunction:
    n = space.n_dof
    builtins_1d = {
        "x": lambda: QGFunction.coordinate(space, 0),
        "p": lambda: QGFunction.coordinate(space, 1),
        "H_ho": lambda: hamiltonian(ModelId.oscillator(args.omega), space),
        "H_d": lambda: hamiltonian(ModelId.toy(args.gamma), space),
    }
    if name.startswith("@"):
        try:
            with open(name[1:], "r", encoding="utf-8") as fh:
                return QGFunction.from_json_dict(json.load(fh))
        except (KeyError, TypeError, IndexError) as exc:
            raise UsageError(f"malformed function file '{name[1:]}': {exc!r}") from exc
    if n == 1 and name in builtins_1d:
        return builtins_1d[name]()
    if name.startswith("W") and n == 1:
        return oscillator_wigner(int(name[1:]), space)
    if name.startswith("F") and name.endswith(("+", "-")) and n == 1:
        return toy_resonant(int(name[1:-1]), name[-1], space)
    if name == "G00" and n == 2:
        return dho_g(0, 0, space)
    if name == "F00+" and n == 2:
        return dho_f(0, 0, "+", space)
    raise UsageError(f"unknown oracle function '{name}' for N={n}")


def cmd_oracle(args) -> int:
    space = VarSpace(args.ndof, args.hbar)
    f = _named_function(args.f, space, args)
    g = _named_function(args.g, space, args)
    pts: List[np.ndarray] = []
    for chunk in args.points.split(";"):
        if not chunk:
            continue
        vals = [float(v) for v in chunk.split(",")]
        if len(vals) != space.dim:
            raise UsageError(f"oracle point needs {space.dim} coordinates")
        pts.append(np.array(vals))
    if not pts:
        raise UsageError("no oracle points given")
    closed_fn = star(f, g)           # refuses a product that does not exist
    f, g, eps = damped_pair(f, g)    # both sides compare the damped pair
    if eps:
        closed_fn = star(f, g)
    lines = ["point,closed_re,closed_im,quadrature_re,quadrature_im,damping,rel_error"]
    for z in pts:
        closed = closed_fn.evaluate(z)
        quad = quadrature_star_oracle(f, g, z)
        rel = abs(closed - quad) / max(abs(closed), abs(quad), 1e-12)
        lines.append(",".join(["/".join(_fmt(v) for v in z),
                               _fmt(closed.real), _fmt(closed.imag),
                               _fmt(quad.real), _fmt(quad.imag), _fmt(eps), f"{rel:.3e}"]))
    with _output(args.out) as out:
        _emit("\n".join(lines) + "\n", out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _positive(text: str) -> float:
    """argparse type of the physical parameters: a positive finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (0 < value < math.inf):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got '{text}'")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqds",
        description="Moyal star-product engine for quantized damped systems")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--hbar", type=_positive, default=1.0)
    common.add_argument("--omega", type=_positive, default=1.0)
    common.add_argument("--gamma", type=_positive, default=1.0)
    common.add_argument("--out", default=None, help="write data here instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", parents=[common], help="emit eigenvalue tables")
    sp.add_argument("--model", required=True)
    sp.add_argument("--family", choices=("W", "F", "G"), default="F")
    sp.add_argument("--max-n", type=int, default=4)
    sp.add_argument("--max-m", type=int, default=4)
    sp.add_argument("--sign", choices=("+", "-", "none"), default="+")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(fn=cmd_spectrum)

    ef = sub.add_parser("eigenfunction", parents=[common],
                        help="evaluate a family member on a grid")
    ef.add_argument("--model", required=True)
    ef.add_argument("--family", choices=("W", "F", "G"), default="W")
    ef.add_argument("--n", type=int, default=0)
    ef.add_argument("--m", type=int, default=0)
    ef.add_argument("--sign", choices=("+", "-"), default="+")
    ef.add_argument("--grid", required=True,
                    help="axis spec like x=-3:3:65,p=-3:3:65 (unlisted variables pinned at 0)")
    ef.add_argument("--format", choices=("csv", "json"), default="csv")
    ef.set_defaults(fn=cmd_eigenfunction)

    vf = sub.add_parser("verify", parents=[common], help="run the verification registry")
    vf.add_argument("--suite", default="all",
                    help="'all' or comma-separated registry names")
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--tolerance", default=None,
                    help="comma-separated name=value tolerance overrides")
    vf.set_defaults(fn=cmd_verify)

    orc = sub.add_parser("oracle", parents=[common],
                         help="closed-form star vs quadrature comparison table")
    orc.add_argument("--f", required=True, help="built-in name (x, p, W0, F0+, ...) or @file.json")
    orc.add_argument("--g", required=True)
    orc.add_argument("--points", required=True, help="semicolon-separated points, e.g. '1,1;0,0.5'")
    orc.add_argument("--ndof", type=int, choices=(1, 2), default=1)
    orc.set_defaults(fn=cmd_oracle)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: each parse_args call starts a
    fresh namespace from the defaults, so in-process calls share it."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    _setup_logging()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except UsageError as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except OracleNotConverged as exc:
        log.error("oracle did not converge: %s", exc)
        return EXIT_ORACLE
    except IOError as exc:
        log.error("I/O failure: %s", exc)
        return EXIT_IO
    except (ValueError, GaussianCompositionSingular, NonIntegrable, EvolutionSingular,
            UnsupportedPair) as exc:
        # an input outside what the engine computes, e.g. a star product that
        # does not exist
        log.error("%s", exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

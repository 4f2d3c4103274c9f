"""The benchmark's span tracer still finds every name it wraps.

`perfbench/tracer.py` looks up the traced functions by name, so renaming or
deleting one of them breaks `perfbench/run.py --trace 1`; this runs it on a
composition and checks that it counts and restores.
"""

from pathlib import Path

from mqds import gausspoly
from mqds.algebra import VarSpace
from mqds.models import dho_f
from mqds.star import star


def test_tracer_spans_composition_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracer import Tracer

    original = gausspoly.moments_poly
    space = VarSpace(2, 1.0)
    f = dho_f(1, 1, "+", space)
    tracer = Tracer()
    tracer.install()
    try:
        star(f, f)
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()
    assert totals["gausspoly.moments.calls"] > 0
    assert totals["gausspoly.compose.calls"] > 0
    assert gausspoly.moments_poly is original


def test_cold_composition_makes_two_moment_calls_per_compose(monkeypatch):
    # the per-layer metrics gausspoly.moments.* and gausspoly.compose.* keep
    # their meaning only while compose calls moments_poly once per block
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracer import Tracer

    space = VarSpace(2, 1.0)
    f, g = dho_f(2, 1, "+", space), dho_f(1, 0, "-", space)
    monkeypatch.setattr(gausspoly, "_CTX_CACHE", {})
    tracer = Tracer()
    tracer.install()
    try:
        star(f, f)
        star(g, g)
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()
    assert totals["gausspoly.ctx.build.calls"] == 2
    assert totals["gausspoly.compose.calls"] == 2
    assert totals["gausspoly.moments.calls"] == 4

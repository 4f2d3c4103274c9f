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

"""Span accounting and host-speed scaling of the serving benchmark.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from layers import METRICS, WRAPS  # noqa: E402
from spans import Span, Tracer, instrument, self_times  # noqa: E402
from workloads import WORKLOADS, Inputs  # noqa: E402


class TickClock:
    """A clock that reads out a fixed sequence of instants."""

    def __init__(self, *ticks: float):
        self._ticks = iter(ticks)

    def __call__(self) -> float:
        return next(self._ticks)


def test_self_time_is_duration_minus_covered_children():
    tr = Tracer(clock=TickClock(0.0, 2.0, 4.0, 6.0, 9.0, 10.0))
    with tr.span("parent"):
        with tr.span("child"):
            pass
        with tr.span("child"):
            pass
    assert self_times(tr.spans) == {"parent": 5.0, "child": 5.0}
    assert tr.total("parent") == 10.0
    assert tr.calls("child") == 2


def test_overlapping_and_overhanging_children_are_covered_once():
    spans = [Span("p", 0.0, 10.0, None),
             Span("a", 1.0, 5.0, 0),
             Span("b", 3.0, 7.0, 0),       # overlaps a
             Span("c", 9.0, 12.0, 0)]      # runs past its parent's end
    st = self_times(spans)
    assert st["p"] == pytest.approx(10.0 - 6.0 - 1.0)


def test_grandchildren_are_not_subtracted_from_the_grandparent():
    tr = Tracer(clock=TickClock(0.0, 1.0, 2.0, 3.0, 5.0, 8.0))
    with tr.span("outer"):
        with tr.span("mid"):
            with tr.span("inner"):
                pass
    st = self_times(tr.spans)
    assert st == {"outer": 4.0, "mid": 3.0, "inner": 1.0}
    assert sum(st.values()) == tr.total("outer")


def test_instrument_restores_the_originals():
    from repro.models import TGNN
    from repro.serving import ServingEngine, ShardRouter
    before = (ServingEngine.__dict__["run"], ShardRouter.__dict__["split"],
              TGNN.__dict__["infer_batch"])
    with pytest.raises(RuntimeError):
        with instrument(Tracer(), WRAPS):
            assert ServingEngine.__dict__["run"] is not before[0]
            raise RuntimeError("boom")
    assert (ServingEngine.__dict__["run"], ShardRouter.__dict__["split"],
            TGNN.__dict__["infer_batch"]) == before


def _small(name: str, edges: int):
    w = WORKLOADS[name]
    graph = w.make_graph()
    model = w.build_model(graph, seed=3)
    inputs = Inputs(graph, model, 0, edges)
    return w, inputs


def _traced(w, inputs):
    engine = w.build_engine(inputs)
    tracer = Tracer()
    with instrument(tracer, WRAPS):
        t0 = time.perf_counter()
        report = w.run(engine, inputs)
        wall = time.perf_counter() - t0
    return tracer, report, engine, wall


def _ancestors(spans, i):
    names = []
    while spans[i].parent is not None:
        i = spans[i].parent
        names.append(spans[i].name)
    return names


def test_memsync_nests_inside_router_split():
    w, inputs = _small("drift-rebalance-push", 1500)
    tracer, _, _, _ = _traced(w, inputs)
    spans = tracer.spans
    memsync = [i for i, s in enumerate(spans) if s.name == "memsync"]
    assert memsync
    for i in memsync:
        assert _ancestors(spans, i)[:1] == ["router.split"]
    st = self_times(spans)
    assert st["router.split"] < tracer.total("router.split")
    assert sum(st.values()) == pytest.approx(tracer.total("engine.run"))


def test_models_nest_inside_hw_inside_pipeline():
    w, inputs = _small("fpga-sharded-push", 150)
    tracer, _, _, wall = _traced(w, inputs)
    spans = tracer.spans
    infer = [i for i, s in enumerate(spans) if s.name == "models.infer_batch"]
    assert infer
    for i in infer:
        assert _ancestors(spans, i)[:3] == ["hw.run_stream",
                                            "pipeline.process_batch",
                                            "events.run"]
    st = self_times(spans)
    for name in ("pipeline.process_batch", "hw.run_stream"):
        assert st[name] < tracer.total(name)
    # Each layer's self time is a disjoint share of the run.
    assert sum(st.values()) == pytest.approx(tracer.total("engine.run"))
    assert sum(st.values()) <= wall


def test_layer_self_times_sum_to_the_run_wall():
    w, inputs = _small("measured-inproc", 300)
    tracer, report, engine, wall = _traced(w, inputs)
    layered = sum(self_times(tracer.spans).values())
    assert layered == pytest.approx(wall, rel=0.03)
    calls = tracer.calls("measured.compute")
    assert calls == sum(s.jobs for s in report.shard_stats)


def test_benchmark_json_lists_every_per_layer_metric():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == list(METRICS)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


def test_bracket_scales_each_interval_by_the_reference_around_it(
        monkeypatch):
    import hostspeed
    times = iter([0.050, 0.030, 0.020])
    monkeypatch.setattr(hostspeed, "reference_s", lambda: next(times))
    bracket = hostspeed.Bracket()
    assert bracket.close() == pytest.approx(hostspeed.REF_S / 0.040)
    assert bracket.close() == pytest.approx(hostspeed.REF_S / 0.025)
    assert bracket.samples == [0.050, 0.030, 0.020]

"""The four serving workloads: inputs from a seed, engine, operating point.

Every workload is an open-loop arrival schedule in simulated time: each
of ``num_streams`` tenants replays the graph's window arrivals,
compressed by ``speedup``, whatever the fleet is doing.  The stream's
structure (edge endpoints and timestamps) comes from a generator with a
fixed seed, so the operating point is fixed; the benchmark ``--seed``
picks which slice of that stream is replayed (a start offset of up to
``SLICE_SLACK`` edges, which moves every window boundary) and draws the
model weights.  The engine sees only the generated graph and model.

Only the library's public API is used: the ``repro.datasets``
generators, :class:`~repro.models.TGNN`, ``ServingEngine.from_registry``
/ ``ServingEngine(...)``, ``ServingEngine.run`` and ``ServingReport``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.datasets import drifting_hot_set_graph, wikipedia_like
from repro.hw import U200_DESIGN, ZCU104_DESIGN, plan_shard_dies
from repro.models import ModelConfig, TGNN
from repro.serving import (DEFAULT_REGISTRY, DynamicBatcher,
                           OnlineRebalancer, ServingEngine, VertexHeat,
                           make_policy)

__all__ = ["SLICE_SLACK", "Inputs", "Workload", "WORKLOADS"]

# How far (in edges) the seed may move the replayed slice's start.
SLICE_SLACK = 8
# Vertex memory, time-encoding and embedding width of the model, as
# `serve-sim` builds it by default.
MODEL_DIM = 32


@dataclass(frozen=True)
class Inputs:
    graph: Any
    model: Any
    start: int
    end: int


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``make_graph`` builds the full stream (fixed structure), ``edges`` is
    the replayed slice length, ``build_engine(inputs)`` a fresh engine,
    ``run_kwargs`` the rest of ``ServingEngine.run``'s arguments and
    ``guard(report)`` the operating-point check: it returns the reasons
    the run is degenerate (empty when it is not).
    """

    name: str
    why: str
    modeled: bool
    make_graph: Callable[[], Any]
    edges: int
    build_engine: Callable[[Inputs], ServingEngine]
    run_kwargs: dict
    guard: Callable[[Any], list[str]]

    def slice_start(self, seed: int) -> int:
        return int(np.random.default_rng(seed).integers(0, SLICE_SLACK + 1))

    def build_model(self, graph, seed: int):
        """The ``serve-sim`` default NP(4) model, weights drawn from seed."""
        d = MODEL_DIM
        cfg = ModelConfig(memory_dim=d, time_dim=d, embed_dim=d,
                          edge_dim=graph.edge_dim, node_dim=graph.node_dim,
                          simplified_attention=True, lut_time_encoder=True,
                          pruning_budget=4, name="NP(4)")
        model = TGNN(cfg, rng=np.random.default_rng([seed, 1]))
        model.calibrate(graph)
        model.prepare_inference()
        return model

    def run(self, engine: ServingEngine, inputs: Inputs, trace=False):
        return engine.run(inputs.graph, start=inputs.start, end=inputs.end,
                          trace=trace, **self.run_kwargs)


def _hot_util(report) -> float:
    return max(s.utilization for s in report.shard_stats)


def _band(lo: float, hi: float) -> Callable[[Any], list[str]]:
    def guard(report) -> list[str]:
        problems = []
        util = _hot_util(report)
        if not lo <= util <= hi:
            problems.append(f"hot-shard sim utilization {util:.3f} outside "
                            f"[{lo}, {hi}]")
        if not report.stable:
            problems.append("fleet not stable (offered load >= 1)")
        return problems
    return guard


# --------------------------------------------------------------------------- #
# fpga-sharded-push: the paper's deployment.
def _fpga_engine(inputs: Inputs) -> ServingEngine:
    # As `serve-sim --backend zcu104 --memsync push` builds it: hash
    # placement, shards spread over the part's dies, mailbox crossings
    # priced at the SLR-boundary latency.
    design = ZCU104_DESIGN
    shards = 4
    placement = make_policy("hash").place(VertexHeat.from_graph(inputs.graph),
                                          shards)
    return ServingEngine.from_registry(
        "zcu104", inputs.model, inputs.graph, num_shards=shards,
        registry=DEFAULT_REGISTRY, batcher=DynamicBatcher(),
        topology="sharded", placement=placement, memsync="push",
        die_of=plan_shard_dies(shards, design.platform.dies),
        mail_hop_s=design.die_crossing_cycles * design.clock_s)


# --------------------------------------------------------------------------- #
# gpp-pool-pipelined: no kernels, no router.
def _pool_engine(inputs: Inputs) -> ServingEngine:
    return ServingEngine.from_registry(
        "cpu-32t", inputs.model, inputs.graph, num_shards=4,
        registry=DEFAULT_REGISTRY, backend_kwargs={"functional": False},
        batcher=DynamicBatcher(max_edges=48, max_delay_s=0.05),
        topology="pool")


def _pool_guard(report) -> list[str]:
    problems = []
    jobs = report.shard_stats[0].jobs
    per_job = report.processed_edges / jobs if jobs else 0.0
    if not per_job > 1.0:
        problems.append(f"batcher coalesced nothing: {per_job:.2f} "
                        f"edges per job")
    util = _hot_util(report)
    if not 0.7 <= util <= 0.97 or not report.stable:
        problems.append(f"pool not near saturation: utilization "
                        f"{util:.3f}, stable={report.stable}")
    return problems


# --------------------------------------------------------------------------- #
# drift-rebalance-push: the only workload that runs the control plane.
DRIFT_SHARDS = 4


def _drift_engine(inputs: Inputs) -> ServingEngine:
    design = U200_DESIGN
    backends = DEFAULT_REGISTRY.create_many(
        "cpu-32t", DRIFT_SHARDS, inputs.model, inputs.graph,
        functional=False)
    rebalancer = OnlineRebalancer(window_s=0.5, util_threshold=0.75,
                                  max_migrations_per_window=8,
                                  cooldown_windows=1)
    return ServingEngine(
        backends, inputs.graph.num_nodes,
        die_of=[s % 2 for s in range(DRIFT_SHARDS)],
        mail_hop_s=design.die_crossing_cycles * design.clock_s,
        memsync="push", rebalancer=rebalancer)


def _drift_guard(report) -> list[str]:
    problems = _band(0.6, 0.9)(report)
    if not report.migrations > 0:
        problems.append("rebalancer made no migration")
    if not report.handoff_rows > 0:
        problems.append("no handoff rows priced")
    return problems


# --------------------------------------------------------------------------- #
# measured-inproc: the kernels are the service time.
def _measured_engine(inputs: Inputs) -> ServingEngine:
    return ServingEngine.from_registry(
        "measured", inputs.model, inputs.graph, num_shards=4,
        registry=DEFAULT_REGISTRY, batcher=DynamicBatcher(),
        topology="sharded", workers=0)


def _measured_guard(report) -> list[str]:
    problems = _band(0.0, 0.5)(report)
    subjobs = sum(s.jobs for s in report.shard_stats)
    samples = (report.measured or {}).get("samples", 0)
    if samples != subjobs:
        problems.append(f"{samples} measured kernel samples for "
                        f"{subjobs} sub-jobs")
    return problems


def _wiki():
    return wikipedia_like(num_edges=3000 + SLICE_SLACK, seed=0)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="fpga-sharded-push",
        why="the paper's deployment: zcu104 shards with push memsync; host "
            "time goes to infer_batch then router/memsync",
        modeled=True, make_graph=_wiki, edges=400,
        build_engine=_fpga_engine,
        run_kwargs=dict(window_s=3600.0, speedup=9.0e6, num_streams=4,
                        ingest="serial"),
        guard=_band(0.6, 0.9)),
    Workload(
        name="gpp-pool-pipelined",
        why="no kernels and no router: arrival assembly, batcher and event "
            "core; the bypass workload for kernel and router changes",
        modeled=True,
        make_graph=lambda: wikipedia_like(num_edges=24000 + SLICE_SLACK,
                                          seed=0),
        edges=6000, build_engine=_pool_engine,
        run_kwargs=dict(window_s=20.0, speedup=2.0e4, num_streams=8,
                        ingest="pipelined"),
        guard=_pool_guard),
    Workload(
        name="drift-rebalance-push",
        why="rotating hot set under the online rebalancer with push "
            "memsync; router.split dominates host time",
        modeled=True,
        make_graph=lambda: drifting_hot_set_graph(
            12000 + SLICE_SLACK, DRIFT_SHARDS),
        edges=6000, build_engine=_drift_engine,
        run_kwargs=dict(window_s=25.0, speedup=300.0, num_streams=2,
                        ingest="serial"),
        guard=_drift_guard),
    Workload(
        name="measured-inproc",
        why="measured backend in-process: the numpy kernels are the "
            "service time, so kernel work moves sim metrics here",
        modeled=False, make_graph=_wiki, edges=750,
        build_engine=_measured_engine,
        run_kwargs=dict(window_s=3600.0, speedup=5.0e5, num_streams=2,
                        ingest="serial"),
        guard=_measured_guard),
)}

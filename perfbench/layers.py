"""Which library calls the traced run wraps, and the per-layer metrics.

Each layer is a module of the library; its span wraps the public call
through which the serving stack enters it.  Nesting follows the call
stack, so self times never double-count: ``memsync`` runs inside
``router.split``, ``models.infer_batch`` inside ``hw.run_stream`` inside
``pipeline.process_batch``, and everything the event loop drives inside
``events.run`` inside ``engine.run``.

``METRICS`` is the per-layer table, in order: name -> (unit, better).
"""

from __future__ import annotations

from repro.hw import FPGAAccelerator
from repro.models import TGNN
from repro.pipeline import ModeledGPPBackend, SimulatedFPGABackend
from repro.serving import (BatcherActor, EventScheduler, MeasuredBackend,
                           OnlineRebalancer, RouterActor, ServingEngine,
                           ServingReport, ShardRouter, VersionedMemoryCache,
                           WorkerPool)
from repro.serving import engine as engine_module

from spans import Tracer, Wrap, self_times

__all__ = ["METRICS", "WRAPS", "layer_metrics"]

METRICS: dict[str, tuple[str, str]] = {
    "datasets.gen_s": ("s", "lower"),
    "models.build_s": ("s", "lower"),
    "engine.build_s": ("s", "lower"),
    "models.infer_batch.calls": ("count", "lower"),
    "models.infer_batch.edges": ("edges", "lower"),
    "models.infer_batch.self_s": ("s", "lower"),
    "hw.run_stream.calls": ("count", "lower"),
    "hw.run_stream.self_s": ("s", "lower"),
    "pipeline.process_batch.calls": ("count", "lower"),
    "pipeline.process_batch.self_s": ("s", "lower"),
    "engine.arrivals.count": ("count", "lower"),
    "engine.arrivals_s": ("s", "lower"),
    "engine.report_s": ("s", "lower"),
    "engine.to_json_s": ("s", "lower"),
    "batcher.start_s": ("s", "lower"),
    "batcher.jobs": ("count", "lower"),
    "batcher.edges_per_job": ("edges/job", "higher"),
    "batcher.sim_delay_ms": ("ms", "lower"),
    "router.split.calls": ("count", "lower"),
    "router.split.self_s": ("s", "lower"),
    "router.subjobs": ("count", "lower"),
    "router.mail_edges": ("edges", "lower"),
    "router.replication": ("ratio", "lower"),
    "memsync.calls": ("count", "lower"),
    "memsync.self_s": ("s", "lower"),
    "memsync.sync_rows": ("rows", "lower"),
    "memsync.stale_reads": ("count", "lower"),
    "events.self_s": ("s", "lower"),
    "events.processed": ("count", "lower"),
    "events.cohort_share": ("ratio", "higher"),
    "events.sim_util_max": ("ratio", "lower"),
    "events.sim_wait_ms": ("ms", "lower"),
    "rebalance.calls": ("count", "lower"),
    "rebalance.self_s": ("s", "lower"),
    "rebalance.migrations": ("count", "lower"),
    "rebalance.handoff_rows": ("rows", "lower"),
    "measured.compute.calls": ("count", "lower"),
    "measured.compute_s": ("s", "lower"),
    "measured.kernel_ms": ("ms", "lower"),
    "measured.lane_wait_ms": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


# --------------------------------------------------------------------------- #
# Observers: count work at the boundary where it happens.
def _infer_edges(tr: Tracer, args, kwargs, result) -> None:
    tr.count("models.infer_batch.edges", len(args[1]))


def _arrivals(tr: Tracer, args, kwargs, result) -> None:
    tr.count("engine.arrivals.count", len(result))


def _job(tr: Tracer, args, kwargs, result) -> None:
    job = args[1]
    tr.count("batcher.jobs")
    tr.count("batcher.edges", len(job.batch))
    tr.count("batcher.delay_s", job.batching_delay_s)


def _split(tr: Tracer, args, kwargs, result) -> None:
    tr.count("router.routed_edges", len(args[1]))
    tr.count("router.subjobs", len(result))
    for sb in result:
        tr.count("router.mail_edges", sb.mail_edges)
        tr.count("router.applied_edges", len(sb.batch))
        tr.count("memsync.sync_rows", len(sb.sync_pull) + len(sb.sync_push))
        tr.count("memsync.stale_reads", sb.stale_reads)


def _kernel(tr: Tracer, args, kwargs, result) -> None:
    tr.count("measured.kernel_s", result[0])


def _lane_wait(tr: Tracer, args, kwargs, result) -> None:
    # commit(shard, ready_t, duration_s) -> (start, finish)
    tr.count("measured.commits")
    tr.count("measured.lane_wait_s", result[0] - args[2])


WRAPS = (
    Wrap(ServingEngine, "run", "engine.run"),
    Wrap(engine_module, "make_stream_arrivals", "engine.arrivals",
         _arrivals),
    Wrap(ServingReport, "to_json", "engine.to_json"),
    Wrap(BatcherActor, "start", "batcher.start"),
    Wrap(EventScheduler, "run", "events.run"),
    Wrap(RouterActor, "__call__", None, _job),
    Wrap(ShardRouter, "split", "router.split", _split),
    Wrap(VersionedMemoryCache, "note_reads", "memsync"),
    Wrap(VersionedMemoryCache, "note_writes", "memsync"),
    Wrap(OnlineRebalancer, "observe", "rebalance"),
    Wrap(ShardRouter, "migrate", "rebalance"),
    Wrap(VersionedMemoryCache, "transfer_ownership", "rebalance"),
    Wrap(SimulatedFPGABackend, "process_batch", "pipeline.process_batch"),
    Wrap(ModeledGPPBackend, "process_batch", "pipeline.process_batch"),
    Wrap(FPGAAccelerator, "run_stream", "hw.run_stream"),
    Wrap(MeasuredBackend, "compute", "measured.compute", _kernel),
    Wrap(WorkerPool, "commit", None, _lane_wait),
    Wrap(TGNN, "infer_batch", "models.infer_batch", _infer_edges),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, report, engine, scale: float,
                  untraced_wall_s: float, traced_wall_s: float,
                  setup_s: dict) -> dict[str, float]:
    """Every ``METRICS`` entry from one traced run (0 where unexercised).

    ``scale`` takes the traced run's host times to reference speed
    (``hostspeed.py``); ``untraced_wall_s`` is already at it, and so are
    the benchmark's own timings of its set-up calls in ``setup_s``
    (``gen``, ``model`` and ``engine`` seconds).  Event times are not
    scaled.
    """
    self_s = {k: v * scale for k, v in self_times(tr.spans).items()}
    c = tr.counts
    sched = engine.last_scheduler
    stats = report.shard_stats
    jobs = sum(s.jobs for s in stats)
    m = {
        "datasets.gen_s": setup_s["gen"],
        "models.build_s": setup_s["model"],
        "engine.build_s": setup_s["engine"],
        "models.infer_batch.edges": c["models.infer_batch.edges"],
        "engine.arrivals.count": c["engine.arrivals.count"],
        "engine.arrivals_s": self_s.get("engine.arrivals", 0.0),
        "engine.report_s": self_s.get("engine.run", 0.0),
        "engine.to_json_s": self_s.get("engine.to_json", 0.0),
        "batcher.start_s": self_s.get("batcher.start", 0.0),
        "batcher.jobs": c["batcher.jobs"],
        "batcher.edges_per_job": _ratio(c["batcher.edges"],
                                        c["batcher.jobs"]),
        "batcher.sim_delay_ms": 1e3 * _ratio(c["batcher.delay_s"],
                                             c["batcher.jobs"]),
        "router.subjobs": c["router.subjobs"],
        "router.mail_edges": c["router.mail_edges"],
        "router.replication": _ratio(c["router.applied_edges"],
                                     c["router.routed_edges"]),
        "memsync.sync_rows": c["memsync.sync_rows"],
        "memsync.stale_reads": c["memsync.stale_reads"],
        "events.processed": sched.events_processed,
        "events.cohort_share": _ratio(sched.cohort_events,
                                      sched.events_processed),
        "events.sim_util_max": max(s.utilization for s in stats),
        "events.sim_wait_ms": 1e3 * _ratio(
            sum(s.mean_wait_s * s.jobs for s in stats), jobs),
        "rebalance.migrations": report.migrations,
        "rebalance.handoff_rows": report.handoff_rows,
        "measured.compute_s": scale * tr.total("measured.compute"),
        "measured.kernel_ms": 1e3 * scale * _ratio(
            c["measured.kernel_s"], tr.calls("measured.compute")),
        "measured.lane_wait_ms": 1e3 * _ratio(c["measured.lane_wait_s"],
                                              c["measured.commits"]),
        "trace.overhead_frac": scale * traced_wall_s / untraced_wall_s - 1.0,
    }
    for span in ("models.infer_batch", "hw.run_stream",
                 "pipeline.process_batch", "router.split", "memsync",
                 "rebalance", "measured.compute"):
        m[f"{span}.calls"] = tr.calls(span)
    for span in ("models.infer_batch", "hw.run_stream",
                 "pipeline.process_batch", "router.split", "memsync",
                 "rebalance"):
        m[f"{span}.self_s"] = self_s.get(span, 0.0)
    m["events.self_s"] = self_s.get("events.run", 0.0)
    return {name: float(m[name]) for name in METRICS}

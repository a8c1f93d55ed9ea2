"""Serving benchmark: end-to-end and per-layer metrics on four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fpga-sharded-push --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` times repetitions of ``ServingEngine.run`` with nothing
wrapped and reports the end-to-end metrics; ``--trace 1`` adds one run
with the library's layer entry points wrapped (see ``layers.py``) and
reports the per-layer metrics.  Every repetition's output is checked.
Host times are reported at a reference speed (see ``hostspeed.py``).
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The benchmark imports the library from ``src/`` next to this directory
and exits with code 2, printing no result, when it is not there.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

# BLAS and OpenMP pools are pinned to one thread: the benchmark process
# runs everything on its own thread.  ``main`` sets these before numpy is
# first imported, which is when the pools read them.
PINNED_THREADS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 11
MIN_REPS = 2

# End-to-end metrics: name -> unit.
E2E_UNITS = {
    "setup_s": "s", "run_wall_s": "s", "edges_per_wall_s": "1/s",
    "peak_rss_mb": "MB", "sim_mean_response_ms": "ms",
    "sim_p95_response_ms": "ms", "sim_throughput_eps": "1/s",
    "served_window_frac": "ratio", "ok_frac": "ratio",
}


def host_fingerprint() -> dict:
    import numpy as np
    blas: object = "unknown"
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        info = deps.get("blas", {})
        blas = {k: info.get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):
        pass    # numpy < 1.25 prints its config instead of returning it
    return {"usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "pinned_threads": dict(PINNED_THREADS),
            "python_threads": threading.active_count()}


# --------------------------------------------------------------------------- #
class Checker:
    """Per-repetition output checks; remembers the first run's outputs."""

    def __init__(self, workload):
        self.w = workload
        self.reference: str | None = None
        self.queue_depths: list[tuple[int, ...]] = []

    def output_key(self, report) -> str:
        if self.w.modeled:
            return hashlib.sha256(report.to_json().encode()).hexdigest()
        # Measured timings are not reproducible, only the structure is.
        # max_queue_depth is left out: it follows the measured timings
        # (a known defect of to_structure_json, see README.md).
        d = json.loads(report.to_structure_json())
        for s in d["shard_stats"]:
            del s["max_queue_depth"]
        return hashlib.sha256(json.dumps(d, sort_keys=True)
                              .encode()).hexdigest()

    def problems(self, report, engine) -> list[str]:
        out = []
        key = self.output_key(report)
        if self.reference is None:
            self.reference = key
        elif key != self.reference:
            out.append(f"output digest {key[:16]} differs from the first "
                       f"repetition's {self.reference[:16]}")
        if report.windows + report.dropped_windows \
                != engine.last_num_arrivals:
            out.append(f"windows {report.windows} + dropped "
                       f"{report.dropped_windows} != arrivals "
                       f"{engine.last_num_arrivals}")
        out += self.w.guard(report)
        self.queue_depths.append(tuple(s.max_queue_depth
                                       for s in report.shard_stats))
        return out


def setup(w, seed: int):
    """Generate the graph, build the model and an engine, ``SETUP_REPS``
    times; returns the last inputs and the median time of each part, at
    reference speed."""
    from hostspeed import Bracket
    from workloads import Inputs
    parts: dict[str, list[float]] = {"gen": [], "model": [], "engine": [],
                                     "total": []}
    inputs = None
    start = w.slice_start(seed)
    bracket = Bracket()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        graph = w.make_graph()
        t1 = time.perf_counter()
        model = w.build_model(graph, seed)
        t2 = time.perf_counter()
        inputs = Inputs(graph, model, start, start + w.edges)
        w.build_engine(inputs)
        t3 = time.perf_counter()
        scale = bracket.close()
        for key, dt in (("gen", t1 - t0), ("model", t2 - t1),
                        ("engine", t3 - t2), ("total", t3 - t0)):
            parts[key].append(dt * scale)
    return inputs, {k: statistics.median(v) for k, v in parts.items()}


def timed_reps(w, inputs, checker: Checker, seconds: float) -> list[dict]:
    """Back-to-back repetitions of ``ServingEngine.run`` for ``seconds``.

    Each repetition gets a fresh engine (backends carry vertex state);
    only the ``run`` call is timed, and ``scale`` takes its time to
    reference speed.  A repetition that raises or fails a check is
    recorded with ``ok=False``.
    """
    from hostspeed import Bracket
    reps: list[dict] = []
    bracket = Bracket()
    began = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - began < seconds:
        engine = report = None
        gc.collect()
        try:
            engine = w.build_engine(inputs)
            t0 = time.perf_counter()
            report = w.run(engine, inputs)
            wall = time.perf_counter() - t0
            scale = bracket.close()
            problems = checker.problems(report, engine)
        except Exception:   # a failed repetition is counted, not fatal
            traceback.print_exc()
            reps.append({"ok": False})
            bracket = Bracket()
            continue
        for p in problems:
            print(f"CHECK FAILED ({w.name}, rep {len(reps)}): {p}",
                  file=sys.stderr)
        reps.append({"ok": not problems, "wall": wall, "scale": scale,
                     "report": report})
    return reps


def invariant_lane(w, inputs) -> bool:
    """One ``trace=True`` run replayed through tracecheck; not timed."""
    from repro.analysis.tracecheck import check_run
    engine = w.build_engine(inputs)
    owner = engine.router.assignment.copy()
    report = w.run(engine, inputs, trace=True)
    result = check_run(engine=engine, report=report,
                       initial_assignment=owner)
    print(f"invariant lane: {result.render()}")
    return result.ok


def e2e_metrics(w, reps: list[dict], setup_s: float) -> dict[str, float]:
    """The end-to-end metrics: medians over the good repetitions.

    Run times are at reference speed.  So are the ``sim_*`` latencies of
    a measured workload, whose service times are kernel wall times; its
    ``sim_throughput_eps`` is set by the arrival schedule at its load and
    is left as measured.  Modeled ``sim_*`` values are pure event time.
    """
    good = [r for r in reps if r["ok"]]

    def median(fn) -> float:
        return statistics.median(fn(r) for r in good)

    def sim_ms(fn) -> float:
        return median(lambda r: 1e3 * fn(r["report"])
                      * (1.0 if w.modeled else r["scale"]))

    return {
        "setup_s": setup_s,
        "run_wall_s": median(lambda r: r["wall"] * r["scale"]),
        "edges_per_wall_s": median(lambda r: r["report"].served_edges
                                   / (r["wall"] * r["scale"])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "sim_mean_response_ms": sim_ms(lambda r: r.mean_response_s),
        "sim_p95_response_ms": sim_ms(lambda r: r.p95_response_s),
        "sim_throughput_eps": median(lambda r: r["report"].throughput_eps),
        "served_window_frac": median(
            lambda r: r["report"].windows
            / (r["report"].windows + r["report"].dropped_windows)),
        "ok_frac": len(good) / len(reps),
    }


def traced_run(w, inputs, checker: Checker, untraced_wall: float,
               setup_parts: dict) -> tuple[dict, bool]:
    """One run with every layer wrapped; returns (per-layer metrics, ok)."""
    from hostspeed import Bracket
    from layers import WRAPS, layer_metrics
    from spans import Tracer, instrument, self_times

    engine = w.build_engine(inputs)
    tracer = Tracer()
    gc.collect()
    bracket = Bracket()
    with instrument(tracer, WRAPS):
        t0 = time.perf_counter()
        report = w.run(engine, inputs)
        wall = time.perf_counter() - t0
        report.to_json()
    scale = bracket.close()
    problems = checker.problems(report, engine)
    if not w.modeled:
        calls = tracer.calls("measured.compute")
        subjobs = sum(s.jobs for s in report.shard_stats)
        if calls != subjobs:
            problems.append(f"{calls} measured compute calls for "
                            f"{subjobs} sub-jobs")
    for p in problems:
        print(f"CHECK FAILED ({w.name}, traced run): {p}", file=sys.stderr)
    metrics = layer_metrics(tracer, report, engine, scale, untraced_wall,
                            wall, setup_parts)
    run_spans = [s for s in tracer.spans if s.name != "engine.to_json"]
    layered = sum(self_times(run_spans).values())
    print(f"traced engine.run wall {wall:.4f} s; layer self times sum to "
          f"{layered:.4f} s ({100 * (layered / wall - 1):+.2f}%)")
    return metrics, not problems


def attribution(name: str, m: dict) -> str:
    layers = {k: v for k, v in m.items()
              if k.endswith("self_s") or k in ("engine.arrivals_s",
                                               "engine.report_s",
                                               "batcher.start_s")}
    top = max(layers, key=layers.get)
    if name == "fpga-sharded-push":
        ok = top == "models.infer_batch.self_s"
        return f"largest layer {top} (expected models.infer_batch.self_s)" \
            + ("" if ok else " MISMATCH")
    if name == "drift-rebalance-push":
        rm = m["router.split.self_s"] + m["memsync.self_s"]
        rest = max(v for k, v in layers.items()
                   if k not in ("router.split.self_s", "memsync.self_s"))
        return (f"router.split+memsync {rm:.4f} s vs next largest layer "
                f"{rest:.4f} s" + ("" if rm > rest else " MISMATCH"))
    if name == "gpp-pool-pipelined":
        z = [k for k in m if k.startswith(("models.", "router."))
             and k != "models.build_s" and m[k] != 0]
        return "models.* and router.* are zero" if not z \
            else f"nonzero: {', '.join(z)} MISMATCH"
    return f"largest layer {top}"


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {units[name]}")


# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the library source is missing ({SRC / 'repro'}); "
              f"run from a checkout of the repository", file=sys.stderr)
        return 2
    os.environ.update(PINNED_THREADS)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    print(f"host: {json.dumps(host_fingerprint(), sort_keys=True)}")
    print(f"workload {w.name} seed {args.seed}: {w.why}")
    inputs, parts = setup(w, args.seed)
    print(f"setup (median of {SETUP_REPS}): " + ", ".join(
        f"{k} {v:.4f} s" for k, v in parts.items()))
    checker = Checker(w)
    seconds = args.seconds / 2 if args.trace else args.seconds
    reps = timed_reps(w, inputs, checker, seconds)
    good = [r for r in reps if r["ok"]]
    failed = len(reps) - len(good)
    print(f"repetitions: {len(reps)} run, {failed} failed")
    if good:
        for label, values in (
                ("raw run wall", [r["wall"] for r in good]),
                ("reference-speed factor", [r["scale"] for r in good])):
            print(f"  {label}: min {min(values):.4f}, median "
                  f"{statistics.median(values):.4f}, max {max(values):.4f}")
    if w.modeled:
        print(f"report sha256: {checker.reference} (identical across "
              f"repetitions: {'yes' if failed == 0 else 'NO'})")
    else:
        print(f"structure sha256 (max_queue_depth excluded): "
              f"{checker.reference}")
        print(f"known defect: max_queue_depth per shard by repetition "
              f"{checker.queue_depths}")
    if not good:
        print("error: every repetition failed", file=sys.stderr)
        return 1
    e2e = e2e_metrics(w, reps, parts["total"])
    print_table("end-to-end metrics (host times at reference speed):",
                e2e, E2E_UNITS)
    correct = failed == 0
    attempted = len(reps)
    if args.trace:
        from layers import METRICS
        units = {k: u for k, (u, _) in METRICS.items()}
        metrics, ok = traced_run(w, inputs, checker, e2e["run_wall_s"],
                                 parts)
        attempted += 1
        failed += not ok
        correct &= ok
        print_table("per-layer metrics (traced run):", metrics, units)
        print(f"attribution: {attribution(w.name, metrics)}")
    else:
        metrics, units = e2e, E2E_UNITS
    try:
        correct &= invariant_lane(w, inputs)
    except Exception:   # a crashed lane is a failed check, reported
        traceback.print_exc()
        correct = False
    print(f"output checks: {'pass' if correct else 'FAIL'}")
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

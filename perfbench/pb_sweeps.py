"""The sweep workloads of the repo benchmark: ``fleet`` and ``portfolio``.

Each workload is one closed-loop caller in one process. It alternates
a *point* op (a deterministic sweep) with an *uncertain* op (a
distribution-tagged sweep) in a fixed pattern, times every call, and
compares every output with a reference built during set-up.

``fleet``: 1k-scenario ``sweep_fleet`` (inline, ``chunk_size=128``)
and 200-scenario x 256-draw ``sweep_fleet_uncertain`` (inline,
``chunk_size=25``). Scenario expansion, the fleet kernel and the draw
matrix do the work; no portfolio, pool or serve code runs.

``portfolio``: ``sweep_portfolio`` over 10,000 devices x 64 cells and
``sweep_portfolio_uncertain`` over 2,000 devices x 2 scenarios x 256
draws, both at ``jobs=2`` (chunks of 2,500 and 500 devices). The device
kernel, ``math.fsum`` aggregation and process-pool chunk transport do
the work; no ``OverridePlan`` expansion runs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import time
from typing import Any, Callable, Iterator

import numpy as np

from pb_stats import median, nearest_rank, tail

JOBS = 2
DRAWS = 256
#: Chunk sizes of the point and uncertain calls: fleet chunks scenarios,
#: portfolio chunks devices.
POINT_CHUNK = 128
UNCERTAIN_CHUNK = 25
DEVICE_CHUNK = 2_500
UNCERTAIN_DEVICE_CHUNK = 500
#: Call-time quantile the sweep throughputs are taken at (see end_to_end).
THROUGHPUT_QUANTILE = 90.0

_GRID_1K = {
    "annual_growth": [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.75],
    "server.lifetime_years": [2.0, 3.0, 4.0, 5.0, 6.0],
    "facility.pue": [1.07, 1.1, 1.15, 1.25, 1.4],
    "utilization": [0.25, 0.45, 0.65, 0.85],
}

_GRID_64 = {
    "node_shift": [0.0, 1.0, 2.0, 3.0],
    "fab_intensity_g_per_kwh": [583.0, 400.0, 250.0, 100.0],
    "lifetime_scale": [1.0, 1.1, 1.25, 1.5],
}


@dataclasses.dataclass
class Op:
    """One timed library call and the check of its output."""

    name: str
    cells: int
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def _uncertain_equal(got: Any, want: Any) -> bool:
    """Bit-equality of two ``UncertainResult`` objects (NaN equals NaN)."""
    if got.metric_names != want.metric_names or got.axes != want.axes:
        return False
    return all(
        np.array_equal(got.samples_for(m), want.samples_for(m), equal_nan=True)
        for m in want.metric_names
    )


# ---------------------------------------------------------------------
# Inputs: everything a workload runs on comes from its seed.


def fleet_inputs(seed: int) -> dict:
    """The fleet workload's inputs for ``seed``.

    The point grid is the fixed 1k growth x lifetime x PUE x
    utilization grid in a seeded order; the uncertain grid tags PUE and
    utilization with seeded distributions; the draw seed is the
    workload seed.
    """
    from repro.analysis.uncertainty import Normal, Triangular
    from repro.scenarios import ScenarioGrid

    rng = random.Random(seed)
    point = [dict(record) for record in ScenarioGrid(**_GRID_1K)]
    rng.shuffle(point)
    spread = [round(rng.uniform(0.04, 0.08), 4) for _ in range(2)]
    uncertain = [
        dict(record)
        for record in ScenarioGrid(
            **{
                "annual_growth": _GRID_1K["annual_growth"],
                "server.lifetime_years": _GRID_1K["server.lifetime_years"],
                "facility.pue": [
                    Triangular(1.07, 1.10, 1.30),
                    Triangular(1.10, 1.25, 1.50),
                ],
                "utilization": [
                    Normal(0.45, spread[0]),
                    Normal(0.65, spread[1]),
                ],
            }
        )
    ]
    return {"point": point, "uncertain": uncertain, "draw_seed": seed}


def portfolio_inputs(seed: int) -> dict:
    """The portfolio workload's inputs for ``seed``.

    1,250 spins of the 8-archetype catalog with seeded die-area wobble
    (so the yield and wafer math cannot be memoized away), the fixed
    64-cell grid, and two distribution-tagged lifetime x defect-density
    scenarios over the first 2,000 devices.
    """
    from repro.analysis.uncertainty import LogNormal, Triangular, Uniform
    from repro.portfolio import default_catalog
    from repro.scenarios import ScenarioGrid

    rng = random.Random(seed)
    copies = 1_250
    base = default_catalog()
    devices = tuple(
        dataclasses.replace(
            spec,
            name=f"{spec.name}_{spin}",
            die_area_mm2=spec.die_area_mm2 * (1.0 + 0.1 * rng.random()),
            units=spec.units / copies,
        )
        for spin in range(copies)
        for spec in base
    )
    uncertain = [
        {
            "lifetime_scale": Triangular(0.8, 1.0, 1.5),
            "defect_density_scale": LogNormal(0.0, round(rng.uniform(0.2, 0.4), 4)),
        },
        {
            "lifetime_scale": Uniform(0.9, 1.6),
            "defect_density_scale": Triangular(0.7, 1.0, 1.6),
        },
    ]
    return {
        "devices": devices,
        "grid": [dict(record) for record in ScenarioGrid(**_GRID_64)],
        "uncertain_devices": devices[:2_000],
        "uncertain": uncertain,
        "draw_seed": seed,
    }


# ---------------------------------------------------------------------
# Workloads


class FleetWorkload:
    """The ``fleet`` workload: point and uncertain fleet sweeps, inline."""

    name = "fleet"
    #: One uncertain call, then this many point calls (about equal time).
    point_calls_per_cycle = 16
    modules = ("repro.scenarios", "repro.uncertainty", "repro.datacenter.fleet")

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self) -> None:
        """Generate inputs and the monolithic references."""
        from repro.scenarios import facebook_like_fleet, sweep_fleet
        from repro.uncertainty import sweep_fleet_uncertain

        self.inputs = fleet_inputs(self.seed)
        self.base = facebook_like_fleet()
        self.ref_point = sweep_fleet(self.base, self.inputs["point"])
        self.ref_uncertain = sweep_fleet_uncertain(
            self.base, self.inputs["uncertain"],
            draws=DRAWS, seed=self.inputs["draw_seed"],
        )

    def ops(self) -> "tuple[Op, Op]":
        from repro.scenarios import sweep_fleet
        from repro.uncertainty import sweep_fleet_uncertain

        point, uncertain = self.inputs["point"], self.inputs["uncertain"]
        return (
            Op(
                "point",
                len(point),
                lambda: sweep_fleet(self.base, point, chunk_size=POINT_CHUNK),
                lambda table: table == self.ref_point,
            ),
            Op(
                "uncertain",
                len(uncertain) * DRAWS,
                lambda: sweep_fleet_uncertain(
                    self.base, uncertain, draws=DRAWS,
                    seed=self.inputs["draw_seed"], chunk_size=UNCERTAIN_CHUNK,
                ),
                lambda result: _uncertain_equal(result, self.ref_uncertain),
            ),
        )

    def scalar_check(self) -> bool:
        """One uncertain row against the scalar ``monte_carlo`` reference."""
        from repro.analysis.uncertainty import is_distribution, monte_carlo
        from repro.datacenter.fleet import simulate_fleet
        from repro.scenarios import apply_overrides

        records = self.inputs["uncertain"]
        index = random.Random(self.seed).randrange(len(records))
        record = records[index]
        fixed = {k: v for k, v in record.items() if not is_distribution(v)}
        spec = {k: v for k, v in record.items() if is_distribution(v)}

        def model(point: dict) -> float:
            final = simulate_fleet(apply_overrides(self.base, {**fixed, **point}))[-1]
            return final.capex_fraction_market

        reference = monte_carlo(
            model, spec, samples=DRAWS, seed=self.inputs["draw_seed"]
        )
        row = self.ref_uncertain.samples_for("capex_fraction_market")[index]
        return list(row) == list(reference.samples)

    def layer_spans(self, reps: int) -> dict:
        """Benchmark-side spans around each public layer call, chunk by
        chunk with the timed calls' chunk sizes (ms per call, medians)."""
        from repro.datacenter.fleet import simulate_fleet_batch
        from repro.scenarios import OverridePlan, apply_overrides, fleet_scenario_parameters
        from repro.uncertainty import build_draw_matrix

        point, uncertain = self.inputs["point"], self.inputs["uncertain"]
        seed = self.inputs["draw_seed"]
        samples: dict[str, list[float]] = {}

        def expand(records: list, matrix: Any) -> list:
            plan = OverridePlan(self.base, matrix.names)
            expanded = []
            for index, record in enumerate(records):
                fixed = {k: v for k, v in record.items() if k not in matrix.values}
                scenario_base = apply_overrides(self.base, fixed)
                columns = [matrix.values[name][index] for name in matrix.names]
                for draw in range(DRAWS):
                    expanded.append(plan.apply(scenario_base, {
                        name: float(column[draw])
                        for name, column in zip(matrix.names, columns)
                    }))
            return expanded

        def chunked(records: list, size: int, steps: "list[tuple[str, Callable]]") -> None:
            """Each step gets the chunk's records and the previous step's value."""
            totals = dict.fromkeys((name for name, _ in steps), 0.0)
            for start in range(0, len(records), size):
                rows, value = records[start:start + size], None
                for name, step in steps:
                    began = time.perf_counter()
                    value = step(rows, value)
                    totals[name] += (time.perf_counter() - began) * 1e3
            for name, total in totals.items():
                samples.setdefault(name, []).append(total)

        for _ in range(reps):
            chunked(point, POINT_CHUNK, [
                ("scenarios.expand_ms", lambda rows, _: fleet_scenario_parameters(self.base, rows)),
                ("datacenter.kernel_ms", lambda rows, params: simulate_fleet_batch(params)),
                ("datacenter.final_table_ms", lambda rows, batch: batch.final_year_table()),
            ])
            chunked(uncertain, UNCERTAIN_CHUNK, [
                ("uncertainty.draws_ms", lambda rows, _: build_draw_matrix(rows, DRAWS, seed)),
                ("uncertainty.expand_ms", expand),
                ("datacenter.uncertain_kernel_ms", lambda rows, params: simulate_fleet_batch(params)),
                ("datacenter.uncertain_final_table_ms", lambda rows, batch: batch.final_year_table()),
            ])
        layers = {name: median(values) for name, values in samples.items()}
        layers["datacenter.kernel_cells"] = float(len(point))
        layers["datacenter.uncertain_kernel_cells"] = float(len(uncertain) * DRAWS)
        return layers

    def attributed_ms(self, op: str, layers: dict, trace: dict) -> float:
        """Time of ``op`` the spans account for (ms)."""
        if op == "point":
            return (
                layers["scenarios.expand_ms"]
                + layers["datacenter.kernel_ms"]
                + layers["datacenter.final_table_ms"]
                + trace["overhead_ms"]
            )
        return (
            layers["uncertainty.draws_ms"]
            + layers["uncertainty.expand_ms"]
            + layers["datacenter.uncertain_kernel_ms"]
            + layers["datacenter.uncertain_final_table_ms"]
            + trace["overhead_ms"]
        )


class PortfolioWorkload:
    """The ``portfolio`` workload: device-portfolio sweeps at ``jobs=2``."""

    name = "portfolio"
    point_calls_per_cycle = 2
    modules = ("repro.portfolio", "repro.scenarios")

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self) -> None:
        """Generate inputs and the ``jobs=1`` references."""
        from repro.portfolio import sweep_portfolio, sweep_portfolio_uncertain

        self.inputs = portfolio_inputs(self.seed)
        self.ref_point = sweep_portfolio(self.inputs["devices"], self.inputs["grid"])
        self.ref_uncertain = sweep_portfolio_uncertain(
            self.inputs["uncertain_devices"], self.inputs["uncertain"],
            draws=DRAWS, seed=self.inputs["draw_seed"],
        )

    def ops(self) -> "tuple[Op, Op]":
        from repro.portfolio import sweep_portfolio, sweep_portfolio_uncertain

        inputs = self.inputs
        return (
            Op(
                "point",
                len(inputs["devices"]) * len(inputs["grid"]),
                lambda: sweep_portfolio(
                    inputs["devices"], inputs["grid"], jobs=JOBS, chunk_size=DEVICE_CHUNK
                ),
                lambda table: table == self.ref_point,
            ),
            Op(
                "uncertain",
                len(inputs["uncertain_devices"]) * len(inputs["uncertain"]) * DRAWS,
                lambda: sweep_portfolio_uncertain(
                    inputs["uncertain_devices"], inputs["uncertain"],
                    draws=DRAWS, seed=inputs["draw_seed"],
                    jobs=JOBS, chunk_size=UNCERTAIN_DEVICE_CHUNK,
                ),
                lambda result: _uncertain_equal(result, self.ref_uncertain),
            ),
        )

    def scalar_check(self) -> bool:
        return True

    def layer_spans(self, reps: int) -> dict:
        """Benchmark-side spans: the per-chunk draw matrix (ms medians)."""
        from repro.uncertainty import build_draw_matrix

        inputs = self.inputs
        chunks = -(-len(inputs["uncertain_devices"]) // UNCERTAIN_DEVICE_CHUNK)
        samples = []
        for _ in range(reps):
            began = time.perf_counter()
            build_draw_matrix(inputs["uncertain"], DRAWS, inputs["draw_seed"])
            samples.append((time.perf_counter() - began) * 1e3)
        return {
            "uncertainty.draws_ms": median(samples) * chunks,
            "portfolio.kernel_cells": float(
                len(inputs["devices"]) * len(inputs["grid"])
            ),
        }

    def attributed_ms(self, op: str, layers: dict, trace: dict) -> float:
        """Time of ``op`` the spans account for (ms): the sharded run and
        the aggregation after it."""
        return trace["sharded_ms"] + trace["aggregate_ms"]


WORKLOADS = {"fleet": FleetWorkload, "portfolio": PortfolioWorkload}


# ---------------------------------------------------------------------
# Timing


def run_pattern(ops: "tuple[Op, Op]", per_cycle: int, seconds: float) -> dict:
    """Closed loop: one uncertain call, then ``per_cycle`` point calls,
    repeated until ``seconds`` pass (at least two of each kind).

    Returns per-op wall times (s), plus attempted/failed counts and the
    loop's elapsed time. Checks run outside the timed region.
    """
    point, uncertain = ops
    pattern = [uncertain] + [point] * per_cycle
    times: dict[str, list[float]] = {"point": [], "uncertain": []}
    attempted = failed = 0
    began = time.perf_counter()
    deadline = began + seconds
    index = 0
    while (
        time.perf_counter() < deadline
        or len(times["point"]) < 2
        or len(times["uncertain"]) < 2
    ):
        op = pattern[index % len(pattern)]
        index += 1
        attempted += 1
        start = time.perf_counter()
        try:
            output = op.run()
        except Exception as error:  # counted, reported, never fatal
            failed += 1
            print(f"perfbench: {op.name} call failed: {error!r}", flush=True)
            continue
        elapsed = time.perf_counter() - start
        if not op.check(output):
            failed += 1
            print(f"perfbench: {op.name} output differs from its reference",
                  flush=True)
            continue
        times[op.name].append(elapsed)
    return {
        "times": times,
        "attempted": attempted,
        "failed": failed,
        "elapsed": time.perf_counter() - began,
    }


def end_to_end(ops: "tuple[Op, Op]", per_cycle: int, loop: dict) -> "tuple[dict, dict]":
    """End-to-end metrics and sample facts from an untraced loop.

    This machine's vCPUs switch between a fast and a slow speed every
    few seconds, and a 30 s run lands in each for a share that varies
    from run to run, which moves a median by ~15%. Every run sees the
    slow state, so throughput is taken at the p90 call time: it varied
    by ~4% across runs where the median varied by ~18%. The median call
    is recorded in the facts, not gated.
    """
    point, uncertain = ops
    point_s = nearest_rank(loop["times"]["point"], THROUGHPUT_QUANTILE)
    uncertain_s = nearest_rank(loop["times"]["uncertain"], THROUGHPUT_QUANTILE)
    metrics = {
        "point_cells_per_s": point.cells / point_s,
        "uncertain_cells_per_s": uncertain.cells / uncertain_s,
        "max_rate_rps": (1 + per_cycle) / (uncertain_s + per_cycle * point_s),
    }
    q, tail_s = tail(loop["times"]["point"])
    facts = {
        "samples": {name: len(times) for name, times in loop["times"].items()},
        "throughput_quantile": THROUGHPUT_QUANTILE,
        "request_p50_ms": median(loop["times"]["point"]) * 1e3,
        "request_tail": {"percentile": q, "ms": tail_s * 1e3},
        "cells": {"point": point.cells, "uncertain": uncertain.cells},
    }
    return metrics, facts


# ---------------------------------------------------------------------
# Traced run


@contextlib.contextmanager
def _count_envelope_bytes(counter: list) -> Iterator[None]:
    """Sum the bytes of chunk results that cross the process boundary.

    Wraps the executor's envelope check in the calling process, for the traced run
    only; when the executor has no such hook the count stays 0 and the
    run records that it was not measured.
    """
    from repro.exec import runner

    original = getattr(runner, "_open_envelope", None)
    if original is None:
        yield
        return
    counter.append(0)

    def counting(envelope: Any, **kwargs: Any) -> Any:
        try:
            counter[0] += len(envelope[1])
        except (TypeError, IndexError):
            pass
        return original(envelope, **kwargs)

    runner._open_envelope = counting
    try:
        yield
    finally:
        runner._open_envelope = original


def trace_facts(lines: list, call_end_ts: float) -> dict:
    """Per-call facts from the trace lines one sweep call emitted.

    ``aggregate_ms`` is the time from the end of the ``batch`` span to
    the end of the call: the portfolio's ``math.fsum`` reduction runs
    there, after the sharded run returns.
    """
    spans = {line["kind"]: line for line in lines if line.get("type") == "span"
             and line["kind"] in ("batch", "sharded_run")}
    worker = [line for line in lines if line.get("kind") == "chunk_worker"]
    attempts = [line for line in lines if line.get("kind") == "attempt"]
    sharded = spans.get("sharded_run", {})
    chunks = int(sharded.get("chunks", 0))
    jobs = int(sharded.get("jobs", 1))
    if worker:
        busy = sum(line["dur_s"] for line in worker)
        workers = max(1, min(jobs, chunks))
    else:
        busy = sum(line.get("dur_s", 0.0) for line in attempts)
        workers = 1
    rss = [line["peak_rss_kb"] for line in worker if line.get("peak_rss_kb")]
    batch = spans.get("batch", {})
    sharded_s = sharded.get("dur_s", 0.0)
    return {
        "batch_ms": batch.get("dur_s", 0.0) * 1e3,
        "sharded_ms": sharded_s * 1e3,
        "busy_ms": busy * 1e3,
        "overhead_ms": (sharded_s - busy / workers) * 1e3,
        "aggregate_ms": (call_end_ts - batch["ts"]) * 1e3 if batch else 0.0,
        "chunks": chunks,
        "attempts": len(attempts),
        "attempts_ok": sum(1 for line in attempts if line.get("outcome") == "ok"),
        "worker_rss_mb": max(rss) / 1024.0 if rss else 0.0,
        "cache": [line.get("op") for line in lines if line.get("kind") == "cache"],
    }


def traced_run(workload: Any, seconds: float) -> "tuple[dict, dict]":
    """Per-layer metrics: untraced and traced calls interleaved (which
    goes first alternates), then benchmark-side layer spans. Returns
    ``(metrics, facts)``; layers a workload does not run are left out."""
    from repro.obs import TraceRecorder, install_recorder

    ops = workload.ops()
    untraced = {"point": [], "uncertain": []}
    traced = {"point": [], "uncertain": []}
    facts: dict[str, list] = {"point": [], "uncertain": []}
    envelope_bytes: list[int] = []
    lines_per_call: list[int] = []
    attempted = failed = 0
    deadline = time.perf_counter() + 0.8 * seconds
    pattern = [ops[1]] + [ops[0]] * workload.point_calls_per_cycle
    index = 0
    while (
        time.perf_counter() < deadline
        or len(traced["point"]) < 2
        or len(traced["uncertain"]) < 2
    ):
        op = pattern[index % len(pattern)]
        index += 1
        for is_traced in (index % 2 == 0, index % 2 == 1):
            attempted += 1
            recorder = TraceRecorder() if is_traced else None
            counter: list = []
            start = time.perf_counter()
            try:
                with install_recorder(recorder), (
                    _count_envelope_bytes(counter) if is_traced else contextlib.nullcontext()
                ):
                    output = op.run()
            except Exception as error:  # counted, reported, never fatal
                failed += 1
                print(f"perfbench: {op.name} call failed: {error!r}", flush=True)
                continue
            elapsed = time.perf_counter() - start
            end_ts = time.time()
            if not op.check(output):
                failed += 1
                continue
            if recorder is None:
                untraced[op.name].append(elapsed)
                continue
            traced[op.name].append(elapsed)
            facts[op.name].append(trace_facts(recorder.events, end_ts))
            if op.name == "point":
                envelope_bytes.append(counter[0] if counter else 0)
                lines_per_call.append(len(recorder.events))
    metrics = workload.layer_spans(reps=3)

    def fact(op: str, key: str) -> float:
        return median([entry[key] for entry in facts[op]])

    for op in ("point", "uncertain"):
        wall_ms = median(traced[op]) * 1e3
        trace = {key: fact(op, key) for key in ("sharded_ms", "overhead_ms", "aggregate_ms")}
        metrics[f"{op}.wall_ms"] = wall_ms
        metrics[f"{op}.unattributed_ms"] = wall_ms - workload.attributed_ms(op, metrics, trace)
    metrics["exec.overhead_ms"] = fact("point", "overhead_ms")
    metrics["exec.uncertain_overhead_ms"] = fact("uncertain", "overhead_ms")
    metrics["exec.chunks"] = fact("point", "chunks")
    metrics["exec.chunk_bytes_computed"] = float(median(envelope_bytes))
    all_facts = facts["point"] + facts["uncertain"]
    total_attempts = sum(entry["attempts"] for entry in all_facts)
    metrics["exec.attempt_ok_ratio"] = (
        sum(entry["attempts_ok"] for entry in all_facts) / total_attempts
        if total_attempts else 0.0
    )
    metrics["exec.worker_peak_rss_mb"] = max(entry["worker_rss_mb"] for entry in all_facts)
    metrics.update(cache_metrics([op for entry in all_facts for op in entry["cache"]]))
    if workload.name == "portfolio":
        metrics["portfolio.chunk_busy_ms"] = fact("point", "busy_ms")
        metrics["portfolio.aggregate_ms"] = fact("point", "aggregate_ms")
        metrics["portfolio.uncertain_chunk_busy_ms"] = fact("uncertain", "busy_ms")
        metrics["portfolio.uncertain_aggregate_ms"] = fact("uncertain", "aggregate_ms")
    metrics["request.p50_ms"] = median(untraced["point"]) * 1e3
    metrics["request.p99_ms"] = tail(untraced["point"])[1] * 1e3
    metrics["obs.trace_overhead_ratio"] = median(traced["point"]) / median(untraced["point"])
    metrics["obs.trace_lines"] = float(median(lines_per_call))
    metrics["failed_share"] = failed / attempted
    run_facts = {
        "attempted": attempted,
        "failed": failed,
        "samples": {
            "traced": {op: len(values) for op, values in traced.items()},
            "untraced": {op: len(values) for op, values in untraced.items()},
        },
        "chunk_bytes_measured": bool(envelope_bytes and max(envelope_bytes)),
    }
    return metrics, run_facts


def cache_metrics(ops: list) -> dict:
    """The ``exec.cache_*`` metrics from the ``op`` of each cache event."""
    hits, misses = ops.count("hit"), ops.count("miss")
    return {
        "exec.cache_hits": float(hits),
        "exec.cache_misses": float(misses),
        "exec.cache_writes": float(ops.count("write")),
        "exec.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }

"""The ``serve`` workload of the repo benchmark.

``python -m repro serve`` runs in its own process with its default
configuration and a fresh cache directory. One single-threaded asyncio
generator drives it over two keep-alive connections:

* an *uncertain* phase: a closed loop of distinct-seed uncertain named
  sweeps (each a cache miss), timing what a client waits for one;
* three open-loop phases at 100, 150 and 200 req/s with a seeded mix of
  60% ``/v1/scenario``, 30% ``/v1/portfolio`` and 10% ``/v1/sweep``
  over the point-mode named sweeps, plus one ``/metrics`` scrape per
  second on the same connections.

Every request is timed from the moment it was due, so a stall is
charged to the requests queued behind it. A seeded sample of responses
is compared with direct library calls.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

from pb_stats import (
    max_rate, mean, median, nearest_rank, parse_banner, phase_summary, proc_peak_rss_mb, tail,
)
from pb_sweeps import THROUGHPUT_QUANTILE, cache_metrics

#: Open-loop phase rates (req/s). Two keep-alive connections and the
#: 5 ms coalescing window cap what the generator can offer near 200 req/s,
#: so the top phase sits clearly beyond it rather than on the edge.
RATES = (100.0, 150.0, 250.0)
MIN_PHASE_REQUESTS = 1_000
CONNECTIONS = 2
SCRAPE_EVERY_S = 1.0
UNCERTAIN_WARMUP = 2
UNCERTAIN_REQUESTS = 24
UNCERTAIN_DRAWS = 256
SAMPLE_SHARE = 0.1

_PUE = (1.07, 1.1, 1.15, 1.25, 1.4)
_UTILIZATION = (0.25, 0.45, 0.65, 0.85)
_LIFETIME = (2.0, 2.5, 3.0, 4.0, 5.0)
_UNCERTAIN_SWEEPS = ("fleet_growth_lifetime", "fleet_pue_utilization")


# ---------------------------------------------------------------------
# Inputs


def phase_requests(seconds: float, rate: float) -> int:
    """Requests in one open-loop phase: the 100 req/s phase, whose
    latency is reported, fills half the run; every phase has at least
    1,000 so its p99 has 10 samples beyond it."""
    share = 0.5 * seconds * rate if rate == RATES[0] else 0.0
    return max(MIN_PHASE_REQUESTS, int(share))


def _body(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("ascii")


def _item(kind: str, payload: dict, at: float = 0.0, keep: bool = False) -> dict:
    """One scheduled API request, due ``at`` seconds into its plan."""
    return {
        "at": at,
        "method": "POST",
        "path": "/v1/sweep" if kind == "uncertain" else f"/v1/{kind}",
        "kind": kind,
        "body": _body(payload),
        "payload": payload,
        "keep": keep,
    }


def phase_items(seed: int, rate: float, count: int, sweeps: "list[str]") -> list[dict]:
    """One open-loop phase: ``count`` API requests due every ``1/rate`` s,
    exactly 60/30/10% scenario/portfolio/sweep in a seeded order, plus a
    ``/metrics`` scrape due every second."""
    rng = random.Random(f"{seed}:{rate}")
    kinds = (
        ["scenario"] * (count * 6 // 10)
        + ["portfolio"] * (count * 3 // 10)
    )
    kinds += ["sweep"] * (count - len(kinds))
    rng.shuffle(kinds)
    items = []
    for index, kind in enumerate(kinds):
        if kind == "scenario":
            payload = {"overrides": {
                "facility.pue": rng.choice(_PUE),
                "utilization": rng.choice(_UTILIZATION),
            }}
        elif kind == "portfolio":
            payload = {"overrides": {"lifetime_years": rng.choice(_LIFETIME)}}
        else:
            payload = {"name": rng.choice(sweeps)}
        items.append(_item(kind, payload, index / rate, rng.random() < SAMPLE_SHARE))
    scrapes = int(count / rate / SCRAPE_EVERY_S)
    items += [
        {"at": (k + 0.5) * SCRAPE_EVERY_S, "method": "GET", "path": "/metrics",
         "kind": "metrics", "body": b"", "keep": False}
        for k in range(scrapes)
    ]
    items.sort(key=lambda item: item["at"])
    return items


def uncertain_items(draw_seeds: "list[int]") -> list[dict]:
    """Uncertain named sweeps, one per draw seed; distinct seeds miss the cache."""
    return [
        _item("uncertain", {
            "name": _UNCERTAIN_SWEEPS[index % len(_UNCERTAIN_SWEEPS)],
            "draws": UNCERTAIN_DRAWS,
            "seed": draw_seed,
        }, keep=index == 0)
        for index, draw_seed in enumerate(draw_seeds)
    ]


def serve_inputs(seed: int, seconds: float) -> dict:
    """Every request the serve workload sends, generated from ``seed``.

    The warm-up (untimed, but checked) runs each request kind once, so
    lazy imports and the five point sweeps' cache misses are paid before
    timing starts, as a long-lived service pays them once.
    """
    from repro.scenarios import sweep_names

    sweeps = sweep_names()
    draw_seeds = random.Random(f"{seed}:uncertain").sample(
        range(1, 1_000_000), UNCERTAIN_WARMUP + UNCERTAIN_REQUESTS
    )
    warmup = [
        _item("scenario", {"overrides": {"facility.pue": _PUE[0], "utilization": _UTILIZATION[0]}}),
        _item("portfolio", {"overrides": {"lifetime_years": _LIFETIME[0]}}),
        *(_item("sweep", {"name": name}) for name in sweeps),
        *uncertain_items(draw_seeds[:UNCERTAIN_WARMUP]),
    ]
    return {
        "warmup": warmup,
        "uncertain": uncertain_items(draw_seeds[UNCERTAIN_WARMUP:]),
        "phases": [
            (rate, phase_items(seed, rate, phase_requests(seconds, rate), sweeps))
            for rate in RATES
        ],
    }


# ---------------------------------------------------------------------
# References: direct library calls for the responses the run checks


def _plain(value: Any) -> Any:
    """A table cell as the JSON value the service would send."""
    if hasattr(value, "item"):
        value = value.item()
    return value


def _canonical(value: Any) -> str:
    """Exact, NaN-safe comparison key: sorted JSON with full float repr."""
    return json.dumps(value, sort_keys=True)


def _metric_row(table: Any, axes: "list[str]") -> dict:
    skip = set(axes) | {axis.replace(".", "_") for axis in axes}
    return {
        name: _plain(table.column(name)[0])
        for name in table.column_names
        if name not in skip
    }


def _table_rows(table: Any) -> list:
    columns = {name: table.column(name) for name in table.column_names}
    return [
        {name: _plain(values[index]) for name, values in columns.items()}
        for index in range(table.num_rows)
    ]


def reference(item: dict) -> str:
    """The canonical answer a direct library call gives for ``item``."""
    from repro.portfolio import default_catalog, sweep_portfolio
    from repro.scenarios import facebook_like_fleet, run_sweep, run_uncertain_sweep, sweep_fleet

    payload = item["payload"]
    if item["kind"] == "scenario":
        overrides = payload["overrides"]
        table = sweep_fleet(facebook_like_fleet(), [overrides])
        return _canonical({"row": _metric_row(table, list(overrides))})
    if item["kind"] == "portfolio":
        overrides = payload["overrides"]
        table = sweep_portfolio(default_catalog(), [overrides])
        return _canonical({"row": _metric_row(table, list(overrides))})
    if item["kind"] == "uncertain":
        result = run_uncertain_sweep(payload["name"], payload["draws"], payload["seed"])
        return _canonical({"rows": _table_rows(result.quantile_table())})
    return _canonical({"rows": _table_rows(run_sweep(payload["name"]))})


def _answer_key(item: dict) -> str:
    return item["path"] + " " + item["body"].decode("ascii")


def references(inputs: dict) -> dict:
    """References for every distinct request the run may check."""
    refs = {}
    items = inputs["warmup"] + inputs["uncertain"]
    items += [item for _, phase in inputs["phases"] for item in phase]
    for item in filter(lambda item: item["keep"], items):
        key = _answer_key(item)
        if key not in refs:
            refs[key] = reference(item)
    return refs


def check_response(item: dict, body: bytes, refs: dict) -> bool:
    """Whether a kept response carries exactly the reference answer."""
    try:
        answer = json.loads(body)
    except ValueError:
        return False
    if answer.get("degraded") is not False:
        return False
    field = "row" if item["kind"] in ("scenario", "portfolio") else "rows"
    return _canonical({field: answer.get(field)}) == refs[_answer_key(item)]


# ---------------------------------------------------------------------
# The service process


class Service:
    """``python -m repro serve`` in its own process, with a fresh cache
    directory under ``work``; stderr goes to a file, never a pipe that
    could fill and block the service."""

    def __init__(self, root: Path, work: Path, name: str, trace: bool = False) -> None:
        self.root = root
        self.dir = work / name
        self.dir.mkdir(parents=True)
        self.trace_path = self.dir / "trace.jsonl" if trace else None
        self.proc: "subprocess.Popen | None" = None
        self.port = 0

    def start(self, timeout_s: float = 60.0) -> float:
        """Spawn the service; seconds from spawn to the first 200."""
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--cache-dir", str(self.dir / "cache")]
        if self.trace_path is not None:
            command += ["--trace-out", str(self.trace_path)]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        began = time.perf_counter()
        with open(self.dir / "stderr.txt", "wb") as stderr:
            self.proc = subprocess.Popen(
                command, cwd=self.root, env=env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=stderr,
            )
        deadline = began + timeout_s
        while self.port == 0:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"repro serve did not start: {self.stderr()!r}")
            found = parse_banner(self.stderr())
            if found is not None:
                self.port = found[1]
            else:
                time.sleep(0.005)
        while True:
            try:
                status, _ = blocking_get(self.port, "/readyz")
            except OSError:
                status = 0
            if status == 200:
                return time.perf_counter() - began
            if time.perf_counter() > deadline:
                raise RuntimeError("repro serve never became ready")
            time.sleep(0.005)

    def stderr(self) -> str:
        return (self.dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid) if self.proc else 0.0

    def stop(self, timeout_s: float = 40.0) -> bool:
        """SIGTERM drain; True when it reports zero abandoned requests.
        A service that does not exit in time is killed."""
        if self.proc is None:
            return False
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                return False
        return "drained (0 request(s) abandoned)" in self.stderr()


def blocking_get(port: int, path: str) -> "tuple[int, bytes]":
    """One GET on a fresh connection (set-up and readiness only)."""
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n".encode("ascii"))
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


# ---------------------------------------------------------------------
# The open-loop generator: one thread, asyncio, at most two connections


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: "asyncio.StreamReader | None" = None
        self.writer: "asyncio.StreamWriter | None" = None

    async def open(self) -> None:
        # A connected socket handed to asyncio: no resolver thread.
        sock = socket.create_connection(("127.0.0.1", self.port))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader, self.writer = await asyncio.open_connection(sock=sock)

    async def request(self, method: str, path: str, body: bytes) -> "tuple[int, bytes]":
        if self.writer is None:
            await self.open()
        head = (f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n")
        self.writer.write(head.encode("ascii") + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("connection closed by the service")
        status = int(status_line.split()[1])
        length = 0
        keep_alive = True
        while (line := await self.reader.readline()) not in (b"\r\n", b"\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
            elif name.strip().lower() == "connection":
                keep_alive = value.strip().lower() != "close"
        payload = await self.reader.readexactly(length)
        if not keep_alive:
            await self.close()
        return status, payload

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
        self.reader = self.writer = None


async def open_loop(connections: "list[Connection]", items: "list[dict]",
                    cap_s: float = math.inf) -> "list[dict]":
    """Send ``items`` when due (``item["at"]`` seconds after start) over
    the given connections; returns one record per item.

    A record holds the due time, when the generator woke for it
    (``woke``: its own timer lateness), when a connection was free to
    send it (``sent``), and when the answer arrived (``done``). Items
    still unsent ``cap_s`` after the start count as failed.
    """
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    start = loop.time() + 0.01
    records: list[dict] = []

    async def feed() -> None:
        for item in items:
            due = start + item["at"]
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((item, {"due": due, "woke": loop.time()}))
        for _ in connections:
            queue.put_nowait(None)

    async def drive(connection: Connection) -> None:
        while (entry := await queue.get()) is not None:
            item, record = entry
            record["item"] = item
            record["sent"] = loop.time()
            if record["sent"] - start > cap_s:
                record.update(done=record["sent"], ok=False, status=0)
                records.append(record)
                continue
            try:
                status, body = await connection.request(item["method"], item["path"], item["body"])
            except (OSError, ValueError, IndexError, asyncio.IncompleteReadError) as error:
                await connection.close()
                record.update(done=loop.time(), ok=False, status=0, error=repr(error))
            else:
                record.update(done=loop.time(), ok=status == 200, status=status)
                if item["keep"]:
                    record["body"] = body
            records.append(record)

    await asyncio.gather(feed(), *(drive(connection) for connection in connections))
    return records


async def _drive_all(port: int, plans: "list[tuple[str, list[dict], float]]") -> "dict[str, list[dict]]":
    connections = [Connection(port) for _ in range(CONNECTIONS)]
    for connection in connections:
        await connection.open()
    results = {}
    try:
        for name, items, cap_s in plans:
            if name in ("warmup", "uncertain"):
                # Closed loop: one request at a time on one connection.
                results[name] = await open_loop(connections[:1], items, cap_s)
            else:
                results[name] = await open_loop(connections, items, cap_s)
            await asyncio.sleep(0.2)
    finally:
        for connection in connections:
            await connection.close()
    return results


def drive(port: int, plans: "list[tuple[str, list[dict], float]]") -> "dict[str, list[dict]]":
    """Run each plan in turn on one event loop in this thread.

    The generator's own garbage collection is paused while it sends, so
    a collection pause in the client is never charged to the service.
    """
    gc.collect()
    gc.disable()
    try:
        results = asyncio.run(_drive_all(port, plans))
    finally:
        gc.enable()
    if threading.active_count() != 1:
        raise RuntimeError("the load generator must not start threads")
    return results


# ---------------------------------------------------------------------
# Workload


def _cells(item: dict, catalog_size: int) -> int:
    return 1 if item["kind"] == "scenario" else catalog_size


class ServeWorkload:
    """The ``serve`` workload."""

    name = "serve"
    modules = ("repro.scenarios", "repro.portfolio", "repro.uncertainty")

    def __init__(self, seed: int, seconds: float, root: Path, work: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.work = work
        self.services: "list[Service]" = []

    def prepare(self) -> None:
        """Generate every request and the references for checked ones."""
        from repro.portfolio import default_catalog
        from repro.scenarios import run_uncertain_sweep

        self.inputs = serve_inputs(self.seed, self.seconds)
        self.refs = references(self.inputs)
        self.catalog_size = len(default_catalog())
        self.uncertain_cells = {
            name: run_uncertain_sweep(name, 1, 0).num_scenarios * UNCERTAIN_DRAWS
            for name in _UNCERTAIN_SWEEPS
        }

    def start_service(self, trace: bool = False) -> "tuple[Service, float]":
        service = Service(self.root, self.work, f"service{len(self.services)}", trace)
        self.services.append(service)
        return service, service.start()

    def stop_all(self) -> bool:
        """Drain every service still running; True if all drained clean."""
        clean = True
        for service in self.services:
            if service.proc is not None and service.proc.poll() is None:
                clean = service.stop() and clean
        return clean

    def verify(self, records: "list[dict]") -> int:
        """Failed count: non-200s, errors and kept answers that differ."""
        failed = 0
        for record in records:
            if not record["ok"]:
                failed += 1
            elif "body" in record and not check_response(record["item"], record["body"], self.refs):
                failed += 1
                print(f"perfbench: response differs from the library: {record['item']['path']}",
                      flush=True)
        return failed

    def timed(self, service: Service) -> "tuple[dict, dict, int, int]":
        """The untraced run: uncertain phase, then the three rates."""
        plans = [("warmup", self.inputs["warmup"], 60.0),
                 ("uncertain", self.inputs["uncertain"], 60.0)]
        plans += [
            (f"rate{int(rate)}", items, 3.0 * items[-1]["at"] + 10.0)
            for rate, items in self.inputs["phases"]
        ]
        results = drive(service.port, plans)
        peak_rss = service.peak_rss_mb()
        attempted = sum(len(records) for records in results.values())
        failed = sum(self.verify(records) for records in results.values())
        uncertain = [r for r in results["uncertain"] if r["ok"]]
        phases = []
        for rate, _ in self.inputs["phases"]:
            api = [r for r in results[f"rate{int(rate)}"] if r["item"]["kind"] != "metrics"]
            phases.append(phase_summary(rate, api))
        first = phases[0]
        api = [r for r in results[f"rate{int(RATES[0])}"]
               if r["item"]["kind"] in ("scenario", "portfolio") and r["ok"]]
        metrics = {
            # Mean cells per request over the median latency: a stall
            # inflates a mean latency by a multiple, the median barely.
            "point_cells_per_s": mean([_cells(r["item"], self.catalog_size) for r in api])
            / median([r["done"] - r["due"] for r in api]),
            "uncertain_cells_per_s": nearest_rank(
                [self.uncertain_cells[r["item"]["payload"]["name"]] / (r["done"] - r["sent"])
                 for r in uncertain],
                100.0 - THROUGHPUT_QUANTILE,
            ),
            "max_rate_rps": max_rate(phases),
            "peak_rss_mb": peak_rss,
        }
        lateness = [r["woke"] - r["due"] for records in results.values() for r in records]
        facts = {
            "phases": phases,
            "tail_percentile_reported": first["tail_q"],
            "samples": {"uncertain": len(uncertain),
                        **{f"rate{int(p['rate'])}": p["requests"] for p in phases}},
            "generator_late_p50_ms": median(lateness) * 1e3,
            "generator_late_max_ms": max(lateness) * 1e3,
            "connections": CONNECTIONS,
        }
        return metrics, facts, attempted, failed

    def traced(self) -> "tuple[dict, dict, int, int]":
        """Per-layer run: the 100 req/s phase against an untraced and a
        ``--trace-out`` service, client-side timing on both."""
        rate, items = self.inputs["phases"][0]
        count = max(500, int(0.4 * self.seconds * rate))
        items = [item for item in items if item["at"] < count / rate]
        cap = 3.0 * count / rate + 10.0
        clients = {}
        attempted = failed = 0
        trace_service = None
        for traced in (False, True):
            service, _ = self.start_service(trace=traced)
            warmup = drive(service.port, [("warmup", self.inputs["warmup"], 60.0)])["warmup"]
            phase_began = time.time()
            clients[traced] = drive(service.port, [("phase", items, cap)])["phase"]
            attempted += 1 + len(warmup) + len(clients[traced])
            failed += (0 if service.stop() else 1) + self.verify(warmup)
            failed += self.verify(clients[traced])
            if traced:
                trace_service, trace_began = service, phase_began
        # The phase's own trace lines: the warm-up's are left out.
        lines = [json.loads(line) for line in
                 trace_service.trace_path.read_text(encoding="utf-8").splitlines() if line.strip()]
        lines = [line for line in lines if line.get("ts", 0.0) >= trace_began]
        metrics = self._layers(clients, lines)
        metrics["failed_share"] = failed / attempted
        facts = {"samples": {"traced": len(clients[True]), "untraced": len(clients[False])},
                 "trace_lines": len(lines)}
        return metrics, facts, attempted, failed

    def _layers(self, clients: dict, lines: "list[dict]") -> dict:
        from repro.datacenter.fleet import simulate_fleet_batch
        from repro.portfolio import default_catalog, sweep_portfolio
        from repro.scenarios import apply_overrides, facebook_like_fleet

        def api(records: "list[dict]") -> "list[dict]":
            return [r for r in records if r["item"]["kind"] != "metrics" and r["ok"]]

        traced, untraced = api(clients[True]), api(clients[False])
        client_ms = [(r["done"] - r["due"]) * 1e3 for r in traced]
        server_ms = [line["dur_s"] * 1e3 for line in lines
                     if line.get("kind") == "request" and line.get("dur_s") is not None]
        batches = [line for line in lines if line.get("type") == "span"
                   and line.get("kind") == "request_batch"]
        widths = [line.get("width", 1) for line in batches]
        batch_ms = (sum(line["dur_s"] * line.get("width", 1) for line in batches)
                    / sum(widths) * 1e3) if batches else 0.0

        # Benchmark-side spans around the layer calls a request makes.
        expand, kernel, portfolio = [], [], []
        for record in traced[:200]:
            item = record["item"]
            if item["kind"] == "scenario":
                began = time.perf_counter()
                params = apply_overrides(facebook_like_fleet(), item["payload"]["overrides"])
                mid = time.perf_counter()
                simulate_fleet_batch([params]).final_year_table()
                expand.append((mid - began) * 1e3)
                kernel.append((time.perf_counter() - mid) * 1e3)
            elif item["kind"] == "portfolio":
                began = time.perf_counter()
                sweep_portfolio(default_catalog(), [item["payload"]["overrides"]])
                portfolio.append((time.perf_counter() - began) * 1e3)
        share = {kind: sum(1 for r in traced if r["item"]["kind"] == kind) / len(traced)
                 for kind in ("scenario", "portfolio")}
        replica_ms = (share["scenario"] * (median(expand) + median(kernel))
                      + share["portfolio"] * median(portfolio))
        cache = [line.get("op") for line in lines if line.get("kind") == "cache"]
        attempts = [line for line in lines if line.get("kind") == "attempt"]
        sharded = [line for line in lines if line.get("kind") == "sharded_run"]
        scrapes = [(r["done"] - r["sent"]) * 1e3 for r in clients[True]
                   if r["item"]["kind"] == "metrics" and r["ok"]]
        lateness = [r["woke"] - r["due"] for r in clients[True]]
        return {
            **cache_metrics(cache),
            "request.p50_ms": median([(r["done"] - r["due"]) * 1e3 for r in untraced]),
            "request.p99_ms": tail([(r["done"] - r["due"]) * 1e3 for r in untraced])[1],
            "request.wall_ms": mean(client_ms),
            "request.unattributed_ms": batch_ms - replica_ms,
            "scenarios.expand_ms": median(expand),
            "datacenter.kernel_ms": median(kernel),
            "datacenter.kernel_cells": 1.0,
            "serve.front_ms": mean(client_ms) - mean(server_ms),
            "serve.queue_wait_ms": mean(server_ms) - batch_ms,
            "serve.batch_ms": batch_ms,
            "serve.coalesce_width_mean": mean(widths),
            "serve.batches": float(len(batches)),
            "serve.metrics_scrape_ms": median(scrapes) if scrapes else 0.0,
            "exec.chunks": median([line.get("chunks", 0) for line in sharded]) if sharded else 0.0,
            "exec.attempt_ok_ratio": (sum(1 for a in attempts if a.get("outcome") == "ok")
                                      / len(attempts)) if attempts else 0.0,
            "loadgen.late_p99_ms": tail(lateness)[1] * 1e3,
            "obs.trace_overhead_ratio": median([r["done"] - r["due"] for r in traced])
            / median([r["done"] - r["due"] for r in untraced]),
            "obs.trace_lines": len(lines) / max(1, len(traced)),
        }

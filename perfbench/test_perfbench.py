"""Tests of the repo benchmark's own helpers.

Run with the rest of the suite (``PYTHONPATH=src python -m pytest``);
pytest puts this directory on ``sys.path``, so the benchmark modules
import by name.
"""

from __future__ import annotations

import asyncio
import json
import math
from pathlib import Path

import pb_serve
import pb_stats
import pb_sweeps

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------
# Seeded inputs


def _serve_bodies(seed: int) -> list:
    inputs = pb_serve.serve_inputs(seed, seconds=1.0)
    bodies = [item["body"] for item in inputs["uncertain"]]
    return bodies + [item["body"] for _, phase in inputs["phases"] for item in phase]


def test_same_seed_gives_identical_inputs():
    assert pb_sweeps.fleet_inputs(5) == pb_sweeps.fleet_inputs(5)
    assert pb_sweeps.portfolio_inputs(5) == pb_sweeps.portfolio_inputs(5)
    assert _serve_bodies(5) == _serve_bodies(5)


def test_another_seed_gives_different_inputs():
    assert pb_sweeps.fleet_inputs(5) != pb_sweeps.fleet_inputs(6)
    assert pb_sweeps.portfolio_inputs(5) != pb_sweeps.portfolio_inputs(6)
    assert _serve_bodies(5) != _serve_bodies(6)


def test_inputs_keep_their_sizes_across_seeds():
    for seed in (1, 2):
        fleet = pb_sweeps.fleet_inputs(seed)
        assert len(fleet["point"]) == 1_000 and len(fleet["uncertain"]) == 200
        portfolio = pb_sweeps.portfolio_inputs(seed)
        assert len(portfolio["devices"]) == 10_000 and len(portfolio["grid"]) == 64
        assert len(portfolio["uncertain_devices"]) == 2_000


def test_serve_phase_mix_is_exact_and_scrapes_ride_the_schedule():
    items = pb_serve.phase_items(3, 100.0, 1_000, ["a", "b"])
    kinds = [item["kind"] for item in items]
    assert (kinds.count("scenario"), kinds.count("portfolio"), kinds.count("sweep")) == (
        600, 300, 100,
    )
    assert kinds.count("metrics") == 10
    assert [item["at"] for item in items] == sorted(item["at"] for item in items)


# ---------------------------------------------------------------------
# Percentiles


def test_tail_percentile_keeps_ten_samples_beyond():
    assert pb_stats.tail_percentile(10_000) == 99.9
    assert pb_stats.tail_percentile(1_000) == 99.0
    assert pb_stats.tail_percentile(999) == 98.0
    assert pb_stats.tail_percentile(200) == 95.0
    assert pb_stats.tail_percentile(199) == 90.0
    assert pb_stats.tail_percentile(20) == 50.0
    # Too few for any tail: the median, flagged by the sample count.
    assert pb_stats.tail_percentile(5) == 50.0


def test_tail_value_has_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 1_001)]
    q, value = pb_stats.tail(values)
    assert (q, value) == (99.0, 990.0)
    assert sum(1 for v in values if v > value) == 10
    assert pb_stats.tail([3.0, 1.0, 2.0, 4.0]) == (50.0, 2.5)


# ---------------------------------------------------------------------
# Open-loop due-time accounting


async def _stalling_server(stall_on: int, stall_s: float) -> "tuple[asyncio.Server, int]":
    """A keep-alive HTTP stub that stalls once, on its ``stall_on``-th request."""
    count = [0]

    async def handle(reader, writer):
        while (line := await reader.readline()):
            length = 0
            while (header := await reader.readline()) not in (b"\r\n", b""):
                if header.lower().startswith(b"content-length:"):
                    length = int(header.split(b":")[1])
            await reader.readexactly(length)
            count[0] += 1
            if count[0] == stall_on:
                await asyncio.sleep(stall_s)
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
            await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def test_a_stall_is_charged_to_the_requests_behind_it():
    items = [
        {"at": k * 0.01, "method": "POST", "path": "/x", "kind": "scenario",
         "body": b"{}", "keep": False}
        for k in range(20)
    ]

    async def scenario():
        server, port = await _stalling_server(stall_on=3, stall_s=0.2)
        connection = pb_serve.Connection(port)
        try:
            await connection.open()
            return await pb_serve.open_loop([connection], items)
        finally:
            await connection.close()
            server.close()
            await server.wait_closed()

    records = sorted(asyncio.run(scenario()), key=lambda r: r["due"])
    latencies = pb_stats.latencies_from_due(records)
    service = [r["done"] - r["sent"] for r in records]
    # The stalled request and the ones queued behind it all wait ...
    assert all(latency >= 0.1 for latency in latencies[2:8])
    # ... though each of those behind it is answered quickly once sent:
    # timing from the send would have hidden the stall.
    assert all(seconds < 0.1 for seconds in service[3:8])
    assert pb_stats.phase_summary(100.0, records)["tail_ms"] >= 100.0


def test_a_failed_request_misses_every_latency_limit():
    records = [{"due": 0.0, "sent": 0.0, "done": 0.001, "ok": True},
               {"due": 0.01, "sent": 0.01, "done": 0.011, "ok": False}]
    assert pb_stats.latencies_from_due(records) == [0.001, math.inf]


# ---------------------------------------------------------------------
# max_rate_rps


def _phase(rate, tail_ms, growth_ms=0.0):
    return {"rate": rate, "tail_ms": tail_ms, "backlog_growth_ms": growth_ms,
            "achieved_rps": rate * 0.999}


def test_max_rate_interpolates_where_the_tail_crosses_the_limit():
    phases = [_phase(100.0, 12.0), _phase(150.0, 26.0), _phase(200.0, 583.0)]
    share = (math.log(50.0) - math.log(26.0)) / (math.log(583.0) - math.log(26.0))
    assert math.isclose(pb_stats.max_rate(phases), 150.0 + 50.0 * share)
    assert 160.0 < pb_stats.max_rate(phases) < 161.0


def test_max_rate_moves_little_when_a_marginal_phase_flips():
    passing = [_phase(100.0, 12.0), _phase(150.0, 48.0), _phase(250.0, 900.0)]
    failing = [_phase(100.0, 12.0), _phase(150.0, 52.0), _phase(250.0, 900.0)]
    assert abs(pb_stats.max_rate(passing) - pb_stats.max_rate(failing)) < 5.0


def test_max_rate_when_every_phase_passes_is_the_top_achieved_rate():
    phases = [_phase(100.0, 12.0), _phase(150.0, 20.0)]
    assert pb_stats.max_rate(phases) == 150.0 * 0.999


def test_a_growing_backlog_fails_a_phase_under_the_latency_limit():
    phases = [_phase(100.0, 12.0), _phase(150.0, 40.0, growth_ms=30.0)]
    assert pb_stats.max_rate(phases) == 100.0 * 0.999


def test_no_passing_phase_gives_no_rate():
    assert pb_stats.max_rate([_phase(100.0, math.inf)]) == 0.0


def test_backlog_growth_compares_the_last_quarter_with_the_first():
    steady = [{"due": k, "sent": k + 0.001} for k in range(40)]
    growing = [{"due": k, "sent": k + 0.001 * k} for k in range(40)]
    assert abs(pb_stats.backlog_growth_ms(steady)) < 1e-6
    assert pb_stats.backlog_growth_ms(growing) > 20.0


# ---------------------------------------------------------------------
# The service banner and process


def test_parse_banner():
    line = ("repro serve listening on http://127.0.0.1:43123 "
            "(pid ready; SIGTERM drains)\n")
    assert pb_stats.parse_banner(line) == ("127.0.0.1", 43123)
    assert pb_stats.parse_banner("Traceback (most recent call last):") is None
    assert pb_stats.parse_banner("") is None


def test_service_starts_from_its_banner_and_drains_clean(tmp_path):
    service = pb_serve.Service(ROOT, tmp_path, "svc")
    try:
        assert service.start(timeout_s=60.0) > 0.0
        status, body = pb_serve.blocking_get(service.port, "/healthz")
        assert status == 200 and json.loads(body)["status"] == "ok"
        assert service.peak_rss_mb() > 0.0
    finally:
        assert service.stop()
    assert service.proc.returncode == 0


def test_check_response_accepts_the_library_answer_only():
    item = pb_serve.phase_items(1, 100.0, 10, ["fleet_growth_lifetime"])[0]
    refs = {pb_serve._answer_key(item): pb_serve.reference(item)}
    field = "row" if item["kind"] in ("scenario", "portfolio") else "rows"
    answer = {"kind": item["kind"], "degraded": False,
              field: json.loads(refs[pb_serve._answer_key(item)])[field]}
    assert pb_serve.check_response(item, json.dumps(answer).encode(), refs)
    if field == "row":
        name = sorted(answer["row"])[0]
        answer["row"][name] = answer["row"][name] + 1
    else:
        answer["rows"] = answer["rows"][1:]
    assert not pb_serve.check_response(item, json.dumps(answer).encode(), refs)

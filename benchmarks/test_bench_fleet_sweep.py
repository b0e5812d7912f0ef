"""Benchmark: 1000-scenario fleet sweep, batched kernel vs scalar loop.

The scenario engine's reason to exist: the same growth × lifetime ×
PUE × utilization grid through ``simulate_fleet_batch`` (one
struct-of-arrays kernel call) and through a per-scenario
``simulate_fleet`` loop. The acceptance gate is >=10x between the two
recorded means. The end-to-end bench runs the same grid through
``sweep_fleet`` (columnar expansion, chunked kernel, result table), so
its ratio to the bare-kernel bench is the expansion layer's cost.
"""

from repro.datacenter.fleet import simulate_fleet, simulate_fleet_batch
from repro.scenarios import (
    ScenarioGrid,
    facebook_like_fleet,
    fleet_scenario_parameters,
    sweep_fleet,
)

_GRID = ScenarioGrid(
    **{
        "annual_growth": [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.75],
        "server.lifetime_years": [2.0, 3.0, 4.0, 5.0, 6.0],
        "facility.pue": [1.07, 1.1, 1.15, 1.25, 1.4],
        "utilization": [0.25, 0.45, 0.65, 0.85],
    }
)


def _scenarios():
    return fleet_scenario_parameters(facebook_like_fleet(), _GRID)


def test_bench_fleet_sweep_batch_1k(benchmark):
    scenarios = _scenarios()
    assert len(scenarios) == 1000
    result = benchmark(lambda: simulate_fleet_batch(scenarios))
    assert result.num_scenarios == 1000
    # Spot-check the kernel against the scalar reference.
    assert result.reports(137) == simulate_fleet(scenarios[137])


def test_bench_fleet_sweep_scalar_1k(benchmark):
    scenarios = _scenarios()
    reports = benchmark(
        lambda: [simulate_fleet(params) for params in scenarios]
    )
    assert len(reports) == 1000


def test_bench_fleet_sweep_end_to_end_1k(benchmark):
    base = facebook_like_fleet()
    table = benchmark(lambda: sweep_fleet(base, _GRID, chunk_size=128))
    assert table.num_rows == 1000
    # Spot-check one row against the per-row oracle path.
    reference = simulate_fleet_batch(_scenarios()).final_year_table()
    assert table.column("capex_kt")[137] == reference.column("capex_kt")[137]

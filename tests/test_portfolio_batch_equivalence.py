"""The portfolio batch kernels are pinned to the scalar reference.

:func:`repro.portfolio.simulate_device` (composed from the scalar
``repro.fab`` / ``repro.mobile`` primitives) is the reference
implementation. Every batch path — ``simulate_device_batch``,
``sweep_portfolio``, ``sweep_portfolio_uncertain``, and their sharded
variants over a jobs × chunk-size grid — must reproduce it *exactly*:
float equality on every element, identical row order, identical
quantile tables. The expected fleet aggregates are rebuilt here from
per-device scalar runs with the same exactly-rounded arithmetic the
sweep layer uses, so any drift in either side breaks the pin.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.analysis.uncertainty import LogNormal, Triangular, is_distribution
from repro.errors import SimulationError
from repro.exec import FaultRule, FaultSpec, ShardPlan, install_faults
from repro.portfolio import (
    DEVICE_METRICS,
    DeviceSpec,
    default_catalog,
    simulate_device,
    simulate_device_batch,
    sweep_portfolio,
    sweep_portfolio_uncertain,
)
from repro.portfolio.sweep import PORTFOLIO_METRICS
from repro.scenarios import ScenarioGrid
from repro.tabular import Table
from repro.uncertainty.draws import build_draw_matrix

_CATALOG = default_catalog()

_GRID = ScenarioGrid(
    **{
        "node_shift": [0.0, 1.0, 2.0],
        "fab_intensity_g_per_kwh": [583.0, 250.0],
    }
)

_UNCERTAIN_GRID = ScenarioGrid(
    **{
        "node_shift": [0.0, 2.0],
        "defect_density_scale": [LogNormal.from_median(1.0, 0.25)],
        "lifetime_scale": [Triangular(0.8, 1.0, 1.4)],
        "units": [LogNormal.from_median(2.0e6, 0.5)],
    }
)

#: ``units`` is the one axis whose ``(1, cells)`` row weights the
#: summands inside the chunk kernel.
_UNITS_GRID = ScenarioGrid(units=[1.0e5, 3.0e6], node_shift=[0.0, 1.0])


# ----------------------------------------------------------------------
# Scalar-reference reconstruction of the fleet aggregates
# ----------------------------------------------------------------------
def _scalar_cell(overrides: dict) -> "dict[str, float]":
    """One scenario cell's fleet aggregates from per-device scalar runs."""
    sims = []
    units = []
    for spec in _CATALOG:
        resolved = dataclasses.replace(spec, **overrides)
        sims.append(simulate_device(resolved))
        units.append(resolved.units)
    embodied_sum = math.fsum(
        sim["embodied_kg"] * unit for sim, unit in zip(sims, units)
    )
    use_sum = math.fsum(
        sim["use_kg"] * unit for sim, unit in zip(sims, units)
    )
    annual_sum = math.fsum(
        sim["annual_kg"] * unit for sim, unit in zip(sims, units)
    )
    embodied_t = embodied_sum / 1e3
    use_t = use_sum / 1e3
    return {
        "devices": len(_CATALOG),
        "units": math.fsum(units),
        "embodied_t": embodied_t,
        "use_t": use_t,
        "total_t": embodied_t + use_t,
        "annual_t": annual_sum / 1e3,
        "embodied_fraction": embodied_sum / (embodied_sum + use_sum),
        "break_even_days_mean": math.fsum(
            sim["break_even_days"] for sim in sims
        )
        / len(_CATALOG),
    }


def _scalar_sweep_rows(grid) -> "list[dict[str, float]]":
    return [_scalar_cell(dict(record)) for record in grid]


def _scalar_uncertain_samples(grid, draws: int, seed: int):
    """Per-metric (scenarios, draws) arrays from the scalar reference."""
    records = list(grid)
    matrix = build_draw_matrix(records, draws, seed)
    samples = {
        metric: np.empty((len(records), draws)) for metric in PORTFOLIO_METRICS
    }
    for s, record in enumerate(records):
        base = {
            name: value
            for name, value in record.items()
            if not is_distribution(value)
        }
        for d in range(draws):
            cell = _scalar_cell({**base, **matrix.overrides(s, d)})
            for metric in PORTFOLIO_METRICS:
                samples[metric][s, d] = cell[metric]
    return samples


def _assert_tables_identical(left: Table, right: Table) -> None:
    assert left.column_names == right.column_names
    assert left.num_rows == right.num_rows
    for name in left.column_names:
        assert left.column(name) == right.column(name), name


def _assert_uncertain_identical(left, right) -> None:
    _assert_tables_identical(left.axes, right.axes)
    assert left.draws == right.draws
    assert set(left.samples) == set(right.samples)
    for metric, values in left.samples.items():
        assert np.array_equal(values, right.samples[metric]), metric
    _assert_tables_identical(left.quantile_table(), right.quantile_table())


# ----------------------------------------------------------------------
# Per-device batch kernel vs scalar reference
# ----------------------------------------------------------------------
class TestSimulateDeviceBatch:
    def test_every_catalog_row_every_metric_exact(self):
        table = simulate_device_batch(_CATALOG)
        assert table.num_rows == len(_CATALOG)
        for index, spec in enumerate(_CATALOG):
            reference = simulate_device(spec)
            for metric in DEVICE_METRICS:
                assert table.column(metric)[index] == reference[metric], (
                    spec.name,
                    metric,
                )

    def test_identity_columns(self):
        table = simulate_device_batch(_CATALOG)
        assert table.column("device") == [spec.name for spec in _CATALOG]
        assert table.column("manufacturer") == [
            spec.manufacturer for spec in _CATALOG
        ]
        assert table.column("units") == [spec.units for spec in _CATALOG]

    def test_node_shift_resolves_like_scalar(self):
        shifted = tuple(
            dataclasses.replace(spec, node_shift=3.0) for spec in _CATALOG
        )
        table = simulate_device_batch(shifted)
        for index, spec in enumerate(shifted):
            reference = simulate_device(spec)
            for metric in DEVICE_METRICS:
                assert table.column(metric)[index] == reference[metric]

    def test_zero_yield_names_the_device(self):
        doomed = dataclasses.replace(
            _CATALOG[0],
            name="monster_die",
            die_area_mm2=70000.0,
            defect_density_scale=50.0,
        )
        with pytest.raises(SimulationError, match="monster_die"):
            simulate_device(doomed)
        with pytest.raises(SimulationError, match="monster_die"):
            simulate_device_batch((doomed,))


# ----------------------------------------------------------------------
# Deterministic fleet sweep vs scalar reference
# ----------------------------------------------------------------------
class TestSweepPortfolioEquivalence:
    @pytest.fixture(scope="class")
    def reference(self):
        return sweep_portfolio(_CATALOG, _GRID)

    @pytest.mark.parametrize(
        "grid,chunk_size",
        [(_GRID, None), (_UNITS_GRID, 3)],
        ids=["grid", "units_axis"],
    )
    def test_matches_scalar_reference_exactly(self, grid, chunk_size):
        table = sweep_portfolio(_CATALOG, grid, chunk_size=chunk_size)
        expected = _scalar_sweep_rows(grid)
        assert table.num_rows == len(expected)
        for name in (
            "devices",
            "units",
            *PORTFOLIO_METRICS,
        ):
            assert table.column(name) == [row[name] for row in expected], (
                name
            )

    def test_axis_columns_preserve_grid_order(self, reference):
        records = list(_GRID)
        assert reference.column("node_shift") == [
            record["node_shift"] for record in records
        ]
        assert reference.column("fab_intensity_g_per_kwh") == [
            record["fab_intensity_g_per_kwh"] for record in records
        ]

    def test_node_name_axis_matches_scalar(self):
        grid = ScenarioGrid(**{"node": ["28nm", "7nm", "3nm"]})
        table = sweep_portfolio(_CATALOG, grid)
        expected = _scalar_sweep_rows(grid)
        for name in ("devices", "units", *PORTFOLIO_METRICS):
            assert table.column(name) == [row[name] for row in expected]

    @pytest.mark.parametrize(
        "jobs,chunk_size",
        [(1, 1), (1, 3), (1, 5), (1, 8), (2, 2), (2, 5), (3, 3), (4, 1)],
    )
    def test_sharded_grid_bit_identical(self, reference, jobs, chunk_size):
        sharded = sweep_portfolio(
            _CATALOG, _GRID, jobs=jobs, chunk_size=chunk_size
        )
        _assert_tables_identical(sharded, reference)

    def test_recovers_bit_identical_under_faults(self, reference):
        spec = FaultSpec(
            rules=(FaultRule(kind="raise", starts=(0, 4), attempts=(1,)),)
        )
        with install_faults(spec):
            stormy = sweep_portfolio(_CATALOG, _GRID, chunk_size=2, retries=1)
        _assert_tables_identical(stormy, reference)

    def test_chaos_pool_bit_identical(self, reference):
        starts = [
            shard.start
            for shard in ShardPlan(
                num_scenarios=len(_CATALOG), chunk_size=3
            ).shards()
        ]
        spec = FaultSpec.chaos(starts, seed=5, rate=1.0)
        assert spec
        with install_faults(spec):
            stormy = sweep_portfolio(
                _CATALOG, _GRID, jobs=2, chunk_size=3, retries=2
            )
        _assert_tables_identical(stormy, reference)

    def test_checkpoint_resume_bit_identical(self, reference, tmp_path):
        from repro.exec import CheckpointStore

        first = CheckpointStore(
            tmp_path, spec_parts=("portfolio-test",), consume=False
        )
        interrupted = sweep_portfolio(
            _CATALOG, _GRID, chunk_size=3, checkpoint=first
        )
        _assert_tables_identical(interrupted, reference)
        resume = CheckpointStore(
            tmp_path, spec_parts=("portfolio-test",), consume=True
        )
        resumed = sweep_portfolio(
            _CATALOG, _GRID, chunk_size=3, checkpoint=resume
        )
        _assert_tables_identical(resumed, reference)

    def test_skip_mode_returns_report(self, reference):
        spec = FaultSpec(
            rules=(FaultRule(kind="raise", starts=(0,), attempts=None),)
        )
        with install_faults(spec):
            partial, report = sweep_portfolio(
                _CATALOG, _GRID, chunk_size=4, retries=0, on_error="skip"
            )
        assert report.num_failed == 1
        # Devices 4..7 survive: their aggregates are a 4-device fleet.
        assert partial.column("devices") == [4] * reference.num_rows
        expected = [
            {
                name: cell[name]
                for name in ("units", *PORTFOLIO_METRICS)
            }
            for cell in (
                _scalar_cell_subset(dict(record), slice(4, 8))
                for record in _GRID
            )
        ]
        for name in ("units", *PORTFOLIO_METRICS):
            assert partial.column(name) == [row[name] for row in expected]


def _scalar_cell_subset(overrides: dict, which: slice) -> "dict[str, float]":
    """Fleet aggregates of a catalog slice, same arithmetic as the sweep."""
    subset = _CATALOG[which]
    sims = [
        simulate_device(dataclasses.replace(spec, **overrides))
        for spec in subset
    ]
    units = [
        dataclasses.replace(spec, **overrides).units for spec in subset
    ]
    embodied_sum = math.fsum(
        sim["embodied_kg"] * unit for sim, unit in zip(sims, units)
    )
    use_sum = math.fsum(sim["use_kg"] * unit for sim, unit in zip(sims, units))
    annual_sum = math.fsum(
        sim["annual_kg"] * unit for sim, unit in zip(sims, units)
    )
    embodied_t = embodied_sum / 1e3
    use_t = use_sum / 1e3
    return {
        "units": math.fsum(units),
        "embodied_t": embodied_t,
        "use_t": use_t,
        "total_t": embodied_t + use_t,
        "annual_t": annual_sum / 1e3,
        "embodied_fraction": embodied_sum / (embodied_sum + use_sum),
        "break_even_days_mean": math.fsum(
            sim["break_even_days"] for sim in sims
        )
        / len(subset),
    }


# ----------------------------------------------------------------------
# Uncertain fleet sweep vs scalar reference
# ----------------------------------------------------------------------
class TestSweepPortfolioUncertainEquivalence:
    @pytest.fixture(scope="class")
    def reference(self):
        return sweep_portfolio_uncertain(
            _CATALOG, _UNCERTAIN_GRID, draws=8, seed=11
        )

    def test_samples_match_scalar_reference_exactly(self, reference):
        expected = _scalar_uncertain_samples(_UNCERTAIN_GRID, draws=8, seed=11)
        assert set(reference.samples) == set(expected)
        for metric, values in expected.items():
            assert np.array_equal(reference.samples[metric], values), metric

    def test_axes_keep_tagged_labels(self, reference):
        assert reference.axes.num_rows == 2
        assert "defect_density_scale" in reference.axes.column_names
        assert "lifetime_scale" in reference.axes.column_names

    @pytest.mark.parametrize(
        "jobs,chunk_size", [(1, 1), (1, 3), (1, 6), (2, 2), (2, 5), (3, 3)]
    )
    def test_sharded_grid_bit_identical(self, reference, jobs, chunk_size):
        sharded = sweep_portfolio_uncertain(
            _CATALOG,
            _UNCERTAIN_GRID,
            draws=8,
            seed=11,
            jobs=jobs,
            chunk_size=chunk_size,
        )
        _assert_uncertain_identical(sharded, reference)

    def test_recovers_bit_identical_under_faults(self, reference):
        spec = FaultSpec(
            rules=(FaultRule(kind="raise", starts=(0, 6), attempts=(1,)),)
        )
        with install_faults(spec):
            stormy = sweep_portfolio_uncertain(
                _CATALOG,
                _UNCERTAIN_GRID,
                draws=8,
                seed=11,
                chunk_size=3,
                retries=1,
            )
        _assert_uncertain_identical(stormy, reference)


# ----------------------------------------------------------------------
# Error surfaces
# ----------------------------------------------------------------------
class TestPortfolioErrors:
    def test_empty_catalog_rejected(self):
        with pytest.raises(SimulationError, match="at least one device"):
            sweep_portfolio((), _GRID)

    def test_unknown_axis_rejected(self):
        grid = ScenarioGrid(**{"warp_factor": [1.0, 2.0]})
        with pytest.raises(SimulationError, match="warp_factor"):
            sweep_portfolio(_CATALOG, grid)

    def test_identity_fields_not_sweepable(self):
        grid = ScenarioGrid(**{"yield_model": ["murphy", "poisson"]})
        with pytest.raises(SimulationError, match="yield_model"):
            sweep_portfolio(_CATALOG, grid)

    def test_distribution_tagged_node_rejected(self):
        grid = ScenarioGrid(**{"node": [LogNormal.from_median(1.0, 0.1)]})
        with pytest.raises(SimulationError, match="node"):
            sweep_portfolio_uncertain(_CATALOG, grid, draws=4, seed=0)

    def test_non_finite_scenario_value_names_the_cell(self):
        grid = ScenarioGrid(**{"fab_intensity_g_per_kwh": [583.0, math.inf]})
        with pytest.raises(SimulationError, match="fab_intensity_g_per_kwh"):
            sweep_portfolio(_CATALOG, grid)

    def test_non_numeric_scenario_value_rejected(self):
        with pytest.raises(SimulationError, match="lifetime_scale"):
            sweep_portfolio(
                _CATALOG, [{"lifetime_scale": "forever"}]
            )

    @pytest.mark.parametrize(
        "field,value,complaint",
        [
            ("lifetime_years", 0.0, "must be positive"),
            ("units", -1.0, "must be non-negative"),
            ("abatement_coverage", 1.5, r"must be in \[0, 1\]"),
            ("charge_efficiency", 0.0, r"must be in \(0, 1\]"),
            ("active_hours_per_day", 25.0, "must be within a day"),
            ("node_shift", 0.5, "must be an integral number"),
        ],
    )
    def test_out_of_range_scenario_value_names_the_cell(
        self, field, value, complaint
    ):
        with pytest.raises(
            SimulationError, match=f"scenario cell 1: {field} {complaint}"
        ):
            sweep_portfolio(_CATALOG, [{field: 1.0}, {field: value}])

    def test_power_overrides_are_checked_against_every_device(self):
        with pytest.raises(
            SimulationError, match="scenario cell 0: active_power_w is below"
        ):
            sweep_portfolio(_CATALOG, [{"active_power_w": 1e-9}])
        with pytest.raises(
            SimulationError, match="device '.*': active_power_w is below"
        ):
            sweep_portfolio(_CATALOG, [{"standby_power_w": 1.0e3}])

    def test_nonpositive_draws_rejected(self):
        with pytest.raises(SimulationError, match="draw"):
            sweep_portfolio_uncertain(
                _CATALOG, _UNCERTAIN_GRID, draws=0, seed=0
            )

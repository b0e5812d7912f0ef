"""simulate_fleet_batch is pinned element-identical to simulate_fleet.

The scalar loop is the reference implementation; every field of every
simulated year must match *exactly* (float equality, not approx)
across a property-style grid of parameters, including the edge cases
the cohort ring and portfolio schedule make delicate. The sweeps'
columnar expansion is pinned the same way to the per-row
``FleetParameters`` expansion, results and exceptions alike.
"""

from __future__ import annotations

import dataclasses as _dc
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.uncertainty import Triangular, Uniform
from repro.data.energy_sources import source_by_name
from repro.data.grids import US_GRID, WORLD_GRID
from repro.datacenter.facility import Facility
from repro.datacenter.fleet import (
    FleetParameters,
    simulate_fleet,
    simulate_fleet_batch,
)
from repro.datacenter.renewable import PPAContract, RenewablePortfolio
from repro.datacenter.server import AI_TRAINING_SERVER, STORAGE_SERVER, WEB_SERVER
from repro.errors import SimulationError
from repro.scenarios import facebook_like_fleet, fleet_scenario_parameters
from repro.scenarios.presets import wind_solar_portfolio
from repro.scenarios.runner import (
    _expand_parameters,
    _fleet_batch,
    _fleet_chunk,
    _fleet_columns,
    sweep_fleet,
)
from repro.serve.requests import execute_group, parse_request
from repro.tabular import Table
from repro.uncertainty import build_draw_matrix, sweep_fleet_uncertain
from repro.units import Carbon, Energy


def _portfolio(wind_gwh: float) -> RenewablePortfolio:
    wind = PPAContract("wind", source_by_name("wind"), Energy.gwh(wind_gwh))
    return RenewablePortfolio((wind,))


def _facility(pue: float = 1.1) -> Facility:
    return Facility("dc", pue=pue, construction_carbon=Carbon.kilotonnes(100.0))


def _params(**overrides) -> FleetParameters:
    params = dict(
        server=WEB_SERVER,
        facility=_facility(),
        location_intensity=US_GRID.intensity,
        initial_servers=10_000,
        annual_growth=0.20,
        years=6,
    )
    params.update(overrides)
    return FleetParameters(**params)


def _property_grid() -> list[FleetParameters]:
    """A cartesian parameter grid covering the delicate regimes."""
    scenarios: list[FleetParameters] = []
    ramps = [
        {},
        {0: _portfolio(50.0)},
        {2: _portfolio(500.0)},  # held across gap years 3..
        {1: _portfolio(40.0), 4: _portfolio(5000.0)},  # over-coverage late
    ]
    for growth, server, years, ramp in itertools.product(
        [0.0, 0.07, 0.25, 1.0],
        [WEB_SERVER, STORAGE_SERVER],
        [1, 3, 8],
        ramps,
    ):
        scenarios.append(
            _params(
                annual_growth=growth,
                server=server,
                years=years,
                renewable_ramp=ramp,
            )
        )
    # Edge regimes the satellite tests call out explicitly.
    scenarios.append(
        _params(server=_short_lived_server(0.3))
    )  # lifetime clamps to 1
    scenarios.append(_params(utilization=0.0))
    scenarios.append(_params(utilization=1.0))
    scenarios.append(_params(initial_servers=1, annual_growth=0.03))
    scenarios.append(
        _params(
            facility=_facility(pue=1.6),
            location_intensity=WORLD_GRID.intensity,
        )
    )
    return scenarios


def _short_lived_server(lifetime_years: float):
    import dataclasses

    return dataclasses.replace(WEB_SERVER, lifetime_years=lifetime_years)


def _assert_reports_identical(scalar, batch) -> None:
    assert len(scalar) == len(batch)
    for reference, candidate in zip(scalar, batch):
        assert candidate.year == reference.year
        assert candidate.servers == reference.servers
        assert candidate.servers_added == reference.servers_added
        assert candidate.energy.joules == reference.energy.joules
        assert candidate.opex_location.grams == reference.opex_location.grams
        assert candidate.opex_market.grams == reference.opex_market.grams
        assert candidate.capex.grams == reference.capex.grams
        assert candidate.renewable_coverage == reference.renewable_coverage


class TestBatchEquivalence:
    def test_property_grid_element_identical(self):
        scenarios = _property_grid()
        batch = simulate_fleet_batch(scenarios)
        assert batch.num_scenarios == len(scenarios)
        for index, params in enumerate(scenarios):
            _assert_reports_identical(
                simulate_fleet(params), batch.reports(index)
            )

    def test_single_scenario_matches(self):
        params = _params(renewable_ramp={1: _portfolio(300.0)})
        _assert_reports_identical(
            simulate_fleet(params), simulate_fleet_batch([params]).reports(0)
        )

    def test_mixed_horizons_mask_cleanly(self):
        scenarios = [_params(years=2), _params(years=7), _params(years=4)]
        batch = simulate_fleet_batch(scenarios)
        assert batch.horizon == 7
        mask = batch.valid_mask()
        assert mask.sum() == 2 + 7 + 4
        # Cells past a scenario's own horizon stay zero.
        assert batch.servers[0, 2:].sum() == 0
        for index, params in enumerate(scenarios):
            _assert_reports_identical(
                simulate_fleet(params), batch.reports(index)
            )

    def test_shared_embodied_model_used_once_per_sku(self):
        # Many scenarios over two SKUs: values must still match the
        # scalar runs that each recompute the embodied footprint.
        scenarios = [
            _params(server=server, annual_growth=growth)
            for server in (WEB_SERVER, STORAGE_SERVER)
            for growth in (0.0, 0.5)
        ]
        batch = simulate_fleet_batch(scenarios)
        for index, params in enumerate(scenarios):
            _assert_reports_identical(
                simulate_fleet(params), batch.reports(index)
            )


class TestBatchDerived:
    def test_capex_to_opex_matches_report_property(self):
        scenarios = [_params(), _params(renewable_ramp={0: _portfolio(900.0)})]
        batch = simulate_fleet_batch(scenarios)
        ratio = batch.capex_to_opex_market()
        fraction = batch.capex_fraction_market()
        for index, params in enumerate(scenarios):
            for year_index, report in enumerate(simulate_fleet(params)):
                assert ratio[index, year_index] == report.capex_to_opex_market
                assert (
                    fraction[index, year_index] == report.capex_fraction_market
                )

    def test_zero_market_opex_yields_inf_ratio(self):
        # A zero-carbon location grid with no contracts: market opex is
        # exactly zero and the ratio must be inf in both paths.
        zero_grid = US_GRID.intensity * 0.0
        params = _params(location_intensity=zero_grid)
        batch = simulate_fleet_batch([params])
        assert np.all(np.isinf(batch.capex_to_opex_market()[0]))
        scalar = simulate_fleet(params)
        assert scalar[0].capex_to_opex_market == math.inf
        _assert_reports_identical(scalar, batch.reports(0))

    def test_to_table_matches_scalar_unit_conversions(self):
        params = _params(renewable_ramp={1: _portfolio(200.0)})
        table = simulate_fleet_batch([params]).to_table()
        for row, report in zip(table, simulate_fleet(params)):
            assert row["year"] == report.year
            assert row["servers"] == report.servers
            assert row["energy_gwh"] == report.energy.gigawatt_hours
            assert row["opex_location_kt"] == report.opex_location.kilotonnes_value
            assert row["opex_market_kt"] == report.opex_market.kilotonnes_value
            assert row["capex_kt"] == report.capex.kilotonnes_value
            assert row["coverage"] == report.renewable_coverage
            assert row["capex_fraction_market"] == report.capex_fraction_market

    def test_final_year_table_is_last_simulated_year(self):
        scenarios = [_params(years=3), _params(years=6)]
        table = simulate_fleet_batch(scenarios).final_year_table()
        assert table.column("year") == [2016, 2019]
        for row, params in zip(table, scenarios):
            final = simulate_fleet(params)[-1]
            assert row["servers"] == final.servers
            assert row["capex_kt"] == final.capex.kilotonnes_value


class TestBatchValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(SimulationError):
            simulate_fleet_batch([])

    def test_scenario_index_bounds_checked(self):
        batch = simulate_fleet_batch([_params()])
        with pytest.raises(SimulationError):
            batch.reports(1)
        with pytest.raises(SimulationError):
            batch.reports(-1)

    def test_contracts_with_zero_demand_rejected_like_scalar(self):
        import dataclasses

        dark_server = dataclasses.replace(
            WEB_SERVER, idle_power=WEB_SERVER.idle_power * 0.0
        )
        params = _params(
            server=dark_server,
            utilization=0.0,
            renewable_ramp={0: _portfolio(10.0)},
        )
        with pytest.raises(SimulationError):
            simulate_fleet(params)
        with pytest.raises(SimulationError):
            simulate_fleet_batch([params])


# ---------------------------------------------------------------------
# Columnar sweep expansion against the per-row oracle.

_BASE = facebook_like_fleet()
_SERVERS = [
    WEB_SERVER,
    STORAGE_SERVER,
    AI_TRAINING_SERVER,
    _dc.replace(WEB_SERVER, lifetime_years=2.5),
]
_RAMPS = [
    {},
    {0: wind_solar_portfolio(500.0, 0.0)},
    {1: wind_solar_portfolio(40.0, 10.0), 3: wind_solar_portfolio(9000.0, 50.0)},
]
_FACILITIES = [_facility(1.3), _facility(1.05)]
_RATIO = st.floats(0.0, 1.0)
_LIFETIME = st.one_of(
    st.floats(0.05, 9.0),
    st.sampled_from([0.5, 1.5, 2.5, 3.5]),  # round-half-to-even ties
    st.integers(1, 9),
    st.just(True),
    st.sampled_from([np.float64(3.0), np.int64(4), np.float32(2.5)]),
)
#: Point values per override path: the four leaf paths (floats, ints,
#: bools, numpy scalars) and structural paths (shared objects).
_POINT_VALUES = {
    "annual_growth": st.one_of(_RATIO, st.sampled_from([0, 1, False, np.float64(0.3)])),
    "utilization": st.one_of(_RATIO, st.sampled_from([0, True, np.float64(0.6)])),
    "server.lifetime_years": _LIFETIME,
    "facility.pue": st.one_of(st.floats(1.0, 2.0), st.sampled_from([1, np.float64(1.2)])),
    "years": st.integers(1, 8),
    "initial_servers": st.integers(1, 60_000),
    "start_year": st.integers(2000, 2030),
    "server": st.sampled_from(_SERVERS),
    "facility": st.sampled_from(_FACILITIES),
    "renewable_ramp": st.sampled_from(_RAMPS),
    "location_intensity": st.sampled_from([US_GRID.intensity, WORLD_GRID.intensity]),
}
_KEYS = st.lists(st.sampled_from(sorted(_POINT_VALUES)), unique=True, max_size=7)


@st.composite
def _shared_records(draw, max_size=6):
    """Records that all set one random key list, in one random order."""
    keys = draw(_KEYS)
    count = draw(st.integers(1, max_size))
    return [{key: draw(_POINT_VALUES[key]) for key in keys} for _ in range(count)]


@st.composite
def _point_records(draw, max_size=6):
    """Shared key lists, or each record its own (as serve batches mix)."""
    if draw(st.booleans()):
        return draw(_shared_records(max_size))
    count = draw(st.integers(1, max_size))
    return [
        {key: draw(_POINT_VALUES[key]) for key in draw(_KEYS)}
        for _ in range(count)
    ]


def _assert_batches_identical(got, want) -> None:
    for field in _dc.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a.dtype == b.dtype, field.name
        assert np.array_equal(a, b, equal_nan=True), field.name


def _oracle(records):
    return simulate_fleet_batch(fleet_scenario_parameters(_BASE, records))


def _raised(call):
    try:
        call()
    except Exception as error:  # the exception is the result under test
        return error
    raise AssertionError("expected an exception")


class TestColumnarExpansion:
    @settings(max_examples=120, deadline=None)
    @given(_point_records())
    def test_point_records_bit_identical_for_every_chunk_size(self, records):
        oracle = _oracle(records)
        # Valid inputs never take the per-row fallback.
        assert _fleet_columns(_BASE, records, None) is not None
        _assert_batches_identical(_fleet_batch(_BASE, records, None), oracle)
        want = Table(
            {k: v for k, v in oracle.final_year_columns().items() if k != "scenario"}
        )
        for size in range(1, len(records) + 1):
            chunks = [
                _fleet_chunk((_BASE, records, None, ()), start, min(start + size, len(records)))
                for start in range(0, len(records), size)
            ]
            assert Table.concat(chunks) == want

    @settings(max_examples=40, deadline=None)
    @given(_shared_records(max_size=5), st.integers(1, 5))
    def test_sweep_fleet_matches_oracle_rows(self, records, chunk_size):
        table = sweep_fleet(_BASE, records, chunk_size=chunk_size)
        for name, values in _oracle(records).final_year_columns().items():
            if name != "scenario":
                assert table.column(name) == values.tolist()

    def test_owner_path_after_a_leaf_replaces_it(self):
        records = [
            {"server.lifetime_years": 9.0, "server": STORAGE_SERVER},
            {"server": STORAGE_SERVER, "server.lifetime_years": 9.0},
            {"facility.pue": 1.9, "facility": _FACILITIES[0], "utilization": 0.2},
        ]
        assert _fleet_columns(_BASE, records, None) is not None
        _assert_batches_identical(_fleet_batch(_BASE, records, None), _oracle(records))

    def test_nan_pue_returns_the_oracle_nan_row(self):
        records = [{"facility.pue": 1.2}, {"facility.pue": float("nan")}]
        got = _fleet_batch(_BASE, records, None)
        _assert_batches_identical(got, _oracle(records))
        assert np.isnan(got.energy_joules[1]).all()

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.1, 0.3]),
                st.sampled_from([2.0, 4, 5.5]),
                st.sampled_from(_SERVERS),
                st.sampled_from([4, 6, 7]),
            ),
            min_size=1,
            max_size=4,
        ),
        st.integers(1, 4),
        st.integers(0, 3),
    )
    def test_uncertain_sweeps_with_tagged_leaf_and_structural_paths(
        self, rows, chunk_size, seed
    ):
        records = [
            {
                "annual_growth": growth,
                "facility.pue": Triangular(1.05, 1.1, 1.4),
                "server.lifetime_years": lifetime,
                "initial_servers": Uniform(1_000.0, 60_000.0),
                "server": server,
                "years": years,
                "utilization": Uniform(0.1, 0.9) if index % 2 else 0.45,
            }
            for index, (growth, lifetime, server, years) in enumerate(rows)
        ]
        draws = 5
        matrix = build_draw_matrix(records, draws, seed)
        assert _fleet_columns(_BASE, records, None, matrix) is not None
        oracle = simulate_fleet_batch(_expand_parameters(_BASE, records, matrix))
        _assert_batches_identical(_fleet_batch(_BASE, records, None, matrix), oracle)
        result = sweep_fleet_uncertain(
            _BASE, records, draws=draws, seed=seed, chunk_size=min(chunk_size, len(records))
        )
        final = oracle.final_year_columns()
        for metric in result.metric_names:
            want = np.asarray(final[metric], dtype=np.float64).reshape(len(records), draws)
            assert np.array_equal(result.samples_for(metric), want, equal_nan=True)


_GOOD = {"annual_growth": 0.2, "utilization": 0.5, "server.lifetime_years": 4.0, "facility.pue": 1.2}
_BAD_LEAF_VALUES = [
    ("facility.pue", 0.999),
    ("utilization", -0.01),
    ("utilization", 1.01),
    ("utilization", float("nan")),
    ("annual_growth", -0.1),
    ("server.lifetime_years", 0),
    ("server.lifetime_years", float("nan")),
    ("server.lifetime_years", float("inf")),
    ("server.lifetime_years", 1e300),
    ("server.lifetime_years", np.True_),
] + [(path, bad) for path in _GOOD for bad in ("1.2", None)]


class TestColumnarErrorParity:
    """The columnar path raises exactly what the per-row path raises."""

    @pytest.mark.parametrize("path, value", _BAD_LEAF_VALUES)
    @pytest.mark.parametrize("position", [0, 2])
    def test_bad_leaf_value_raises_the_oracle_error(self, path, value, position):
        records = [dict(_GOOD) for _ in range(4)]
        records[position][path] = value
        expected = _raised(lambda: _oracle(records))
        assert _fleet_columns(_BASE, records, None) is None
        for chunk_size in (1, 3, 4):
            error = _raised(lambda: sweep_fleet(_BASE, records, chunk_size=chunk_size))
            assert type(error) is type(expected)
            assert str(error) == str(expected)

    @pytest.mark.parametrize(
        "records",
        [
            [_GOOD, {"utilization": 1.5}, {"nope": 1.0}],
            [_GOOD, {"nope": 1.0}, {"utilization": 1.5}],
            [{"years": 0}, {"facility.pue": 0.5}],
            [{"server": "web"}, {"server.lifetime_years": 3.0}],
        ],
    )
    def test_first_bad_record_wins_like_the_oracle(self, records):
        expected = _raised(lambda: _oracle(records))
        error = _raised(lambda: _fleet_batch(_BASE, records, None))
        assert (type(error), str(error)) == (type(expected), str(expected))

    def test_negative_uncertain_growth_draw_raises_the_oracle_error(self):
        records = [
            {"annual_growth": 0.1, "utilization": 0.5},
            {"annual_growth": Uniform(-0.2, 0.3), "utilization": 0.5},
        ]
        matrix = build_draw_matrix(records, 16, 3)
        expected = _raised(
            lambda: simulate_fleet_batch(_expand_parameters(_BASE, records, matrix))
        )
        assert isinstance(expected, SimulationError)
        assert _fleet_columns(_BASE, records, None, matrix) is None
        error = _raised(
            lambda: sweep_fleet_uncertain(_BASE, records, draws=16, seed=3, chunk_size=1)
        )
        assert (type(error), str(error)) == (type(expected), str(expected))

    @pytest.mark.parametrize(
        "bad", [{"server.lifetime_years": float("nan")}, {"utilization": "0.5"}]
    )
    def test_coalesced_serve_batch_raises_the_oracle_error(self, bad):
        overrides = [{"facility.pue": 1.3}, {"utilization": 0.2, "years": 4}, bad]
        expected = _raised(lambda: _oracle(overrides))
        requests = [parse_request("scenario", {"overrides": o}) for o in overrides]
        error = _raised(lambda: execute_group(requests, options={}))
        assert (type(error), str(error)) == (type(expected), str(expected))

"""Multi-year data-center fleet simulation.

Reproduces the *mechanism* behind Figures 2 and 11: a growing server
fleet consumes more energy every year, yet renewable procurement drives
the market-based operational carbon toward zero while capex
(new-server manufacturing plus construction amortization) keeps
growing. The simulation emits one report per year with both Scope 2
variants and the opex/capex split.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Sequence

import numpy as np

from ..core.embodied import EmbodiedModel
from ..errors import SimulationError
from ..tabular import Table
from ..units import JOULES_PER_KWH, SECONDS_PER_YEAR, Carbon, CarbonIntensity, Energy
from .facility import Facility
from .renewable import RenewablePortfolio
from .server import ServerConfig

__all__ = [
    "FleetParameters",
    "FleetYearReport",
    "FleetBatchResult",
    "FleetColumns",
    "simulate_fleet",
    "simulate_fleet_batch",
]


@dataclass(frozen=True)
class FleetParameters:
    """Inputs to the fleet simulation.

    ``renewable_ramp`` maps simulation year index (0-based) to the
    portfolio held that year; missing years reuse the last defined
    portfolio (empty portfolio by default).
    """

    server: ServerConfig
    facility: Facility
    location_intensity: CarbonIntensity
    initial_servers: int
    annual_growth: float
    utilization: float = 0.45
    years: int = 6
    start_year: int = 2014
    renewable_ramp: dict[int, RenewablePortfolio] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.initial_servers <= 0:
            raise SimulationError("initial fleet size must be positive")
        if self.annual_growth < 0.0:
            raise SimulationError("growth rate must be non-negative")
        if not 0.0 <= self.utilization <= 1.0:
            raise SimulationError("utilization must be in [0, 1]")
        if self.years <= 0:
            raise SimulationError("simulation needs at least one year")


@dataclass(frozen=True, slots=True)
class FleetYearReport:
    """One simulated year of fleet operation."""

    year: int
    servers: int
    servers_added: int
    energy: Energy
    opex_location: Carbon
    opex_market: Carbon
    capex: Carbon
    renewable_coverage: float

    @property
    def capex_to_opex_market(self) -> float:
        if self.opex_market.grams == 0.0:
            return float("inf")
        return self.capex.grams / self.opex_market.grams

    @property
    def capex_fraction_market(self) -> float:
        total = self.capex.grams + self.opex_market.grams
        if total == 0.0:
            raise SimulationError("zero total footprint; fraction undefined")
        return self.capex.grams / total


def simulate_fleet(
    params: FleetParameters, embodied: EmbodiedModel | None = None
) -> list[FleetYearReport]:
    """Run the year-by-year fleet simulation.

    Each year the fleet grows by ``annual_growth``; servers older than
    the SKU lifetime are replaced (their replacements count as capex).
    Capex per year = embodied carbon of purchased servers plus the
    facility's construction amortization. Opex per year = facility
    energy (IT energy times PUE) scored at the location intensity and
    at the portfolio's market-based intensity.
    """
    embodied = embodied or EmbodiedModel()
    per_server = params.server.embodied_carbon(embodied)
    reports: list[FleetYearReport] = []
    fleet_size = params.initial_servers
    portfolio = RenewablePortfolio()
    # Age ring: cohort sizes by purchase year, for refresh accounting.
    cohorts: list[int] = [params.initial_servers]
    lifetime = max(int(round(params.server.lifetime_years)), 1)
    for index in range(params.years):
        portfolio = params.renewable_ramp.get(index, portfolio)
        if index == 0:
            purchased = params.initial_servers
        else:
            grown = int(round(fleet_size * (1.0 + params.annual_growth)))
            growth_purchases = grown - fleet_size
            retired = cohorts.pop(0) if len(cohorts) >= lifetime else 0
            purchased = growth_purchases + retired
            fleet_size = grown
            cohorts.append(purchased)
        it_energy = params.server.annual_energy(params.utilization) * float(
            fleet_size
        )
        total_energy = params.facility.facility_energy(it_energy)
        opex_location = params.location_intensity.carbon_for(total_energy)
        coverage = (
            portfolio.coverage(total_energy) if portfolio.contracts else 0.0
        )
        opex_market = (
            portfolio.market_carbon(total_energy, params.location_intensity)
            if portfolio.contracts
            else opex_location
        )
        capex = per_server * float(purchased) + params.facility.construction_per_year()
        reports.append(
            FleetYearReport(
                year=params.start_year + index,
                servers=fleet_size,
                servers_added=purchased,
                energy=total_energy,
                opex_location=opex_location,
                opex_market=opex_market,
                capex=capex,
                renewable_coverage=coverage,
            )
        )
    return reports


@dataclass(frozen=True)
class FleetBatchResult:
    """Struct-of-arrays output of :func:`simulate_fleet_batch`.

    Every per-year field is a ``(scenarios, horizon)`` array where
    ``horizon`` is the longest scenario; cells past a scenario's own
    ``years`` are zero and excluded by :meth:`valid_mask`. Values are
    element-identical to what :func:`simulate_fleet` produces for the
    same :class:`FleetParameters` (pinned by the equivalence tests).
    """

    start_years: np.ndarray
    years: np.ndarray
    servers: np.ndarray
    servers_added: np.ndarray
    energy_joules: np.ndarray
    opex_location_grams: np.ndarray
    opex_market_grams: np.ndarray
    capex_grams: np.ndarray
    renewable_coverage: np.ndarray

    @property
    def num_scenarios(self) -> int:
        return int(self.servers.shape[0])

    @property
    def horizon(self) -> int:
        return int(self.servers.shape[1])

    def valid_mask(self) -> np.ndarray:
        """Boolean ``(scenarios, horizon)`` mask of simulated cells."""
        return np.arange(self.horizon)[None, :] < self.years[:, None]

    def capex_to_opex_market(self) -> np.ndarray:
        """Per-cell capex/market-opex ratio (inf at zero market opex)."""
        with np.errstate(divide="ignore"):
            return np.where(
                self.opex_market_grams == 0.0,
                np.inf,
                self.capex_grams / np.where(
                    self.opex_market_grams == 0.0, 1.0, self.opex_market_grams
                ),
            )

    def capex_fraction_market(self) -> np.ndarray:
        """Per-cell capex share of the market-based total footprint."""
        total = self.capex_grams + self.opex_market_grams
        if np.any((total == 0.0) & self.valid_mask()):
            raise SimulationError("zero total footprint; fraction undefined")
        return self.capex_grams / np.where(total == 0.0, 1.0, total)

    def reports(self, scenario: int) -> list[FleetYearReport]:
        """Reconstruct one scenario as scalar :class:`FleetYearReport`s."""
        if not 0 <= scenario < self.num_scenarios:
            raise SimulationError(
                f"scenario index {scenario} out of range "
                f"[0, {self.num_scenarios})"
            )
        span = int(self.years[scenario])
        start = int(self.start_years[scenario])
        return [
            FleetYearReport(
                year=start + index,
                servers=int(self.servers[scenario, index]),
                servers_added=int(self.servers_added[scenario, index]),
                energy=Energy(float(self.energy_joules[scenario, index])),
                opex_location=Carbon(
                    float(self.opex_location_grams[scenario, index])
                ),
                opex_market=Carbon(float(self.opex_market_grams[scenario, index])),
                capex=Carbon(float(self.capex_grams[scenario, index])),
                renewable_coverage=float(
                    self.renewable_coverage[scenario, index]
                ),
            )
            for index in range(span)
        ]

    def to_table(self) -> Table:
        """Long-format table: one row per simulated scenario-year."""
        mask = self.valid_mask()
        scenario_index, year_index = np.nonzero(mask)
        return Table(
            {
                "scenario": scenario_index,
                "year": self.start_years[scenario_index] + year_index,
                "servers": self.servers[mask],
                "servers_added": self.servers_added[mask],
                "energy_gwh": self.energy_joules[mask] / JOULES_PER_KWH / 1e6,
                "opex_location_kt": self.opex_location_grams[mask] / 1e6 / 1e3,
                "opex_market_kt": self.opex_market_grams[mask] / 1e6 / 1e3,
                "capex_kt": self.capex_grams[mask] / 1e6 / 1e3,
                "coverage": self.renewable_coverage[mask],
                "capex_fraction_market": self.capex_fraction_market()[mask],
            }
        )

    def final_year_columns(self) -> dict[str, np.ndarray]:
        """One array entry per scenario: its last simulated year."""
        rows = np.arange(self.num_scenarios)
        last = self.years - 1
        return {
            "scenario": rows,
            "year": self.start_years + last,
            "servers": self.servers[rows, last],
            "energy_gwh": self.energy_joules[rows, last] / JOULES_PER_KWH / 1e6,
            "opex_location_kt": self.opex_location_grams[rows, last] / 1e6 / 1e3,
            "opex_market_kt": self.opex_market_grams[rows, last] / 1e6 / 1e3,
            "capex_kt": self.capex_grams[rows, last] / 1e6 / 1e3,
            "coverage": self.renewable_coverage[rows, last],
            "capex_fraction_market": self.capex_fraction_market()[rows, last],
            "capex_to_opex_market": self.capex_to_opex_market()[rows, last],
        }

    def final_year_table(self) -> Table:
        """One row per scenario: its last simulated year."""
        return Table(self.final_year_columns())


def _portfolio_schedule(
    params: FleetParameters, horizon: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-year (has_contracts, supply_joules, contracted_g_per_kwh).

    Expands the sparse ``renewable_ramp`` into dense per-year arrays,
    holding the last defined portfolio across gap years exactly like
    the scalar loop does.
    """
    has = np.zeros(horizon, dtype=bool)
    supply = np.zeros(horizon, dtype=np.float64)
    contracted = np.zeros(horizon, dtype=np.float64)
    portfolio = RenewablePortfolio()
    for index in range(params.years):
        portfolio = params.renewable_ramp.get(index, portfolio)
        if not portfolio.contracts:
            continue
        has[index] = True
        supply[index] = portfolio.annual_supply.joules
        contracted[index] = portfolio.contracted_intensity().grams_per_kwh
    return has, supply, contracted


@dataclass(frozen=True)
class FleetColumns:
    """Struct-of-arrays fleet kernel input, one entry per scenario:
    ``lifetime`` in whole years (rounded, at least 1), and the dense
    ``(scenarios, horizon)`` renewable schedule in the last three."""

    initial_servers: np.ndarray
    annual_growth: np.ndarray
    years: np.ndarray
    start_year: np.ndarray
    lifetime: np.ndarray
    idle_watts: np.ndarray
    peak_watts: np.ndarray
    utilization: np.ndarray
    pue: np.ndarray
    location_g_per_kwh: np.ndarray
    embodied_grams: np.ndarray
    construction_grams: np.ndarray
    has_contracts: np.ndarray
    supply_joules: np.ndarray
    contracted_g_per_kwh: np.ndarray

    @classmethod
    def from_parameters(
        cls,
        scenarios: Sequence[FleetParameters],
        embodied: EmbodiedModel | None = None,
    ) -> FleetColumns:
        """One entry per :class:`FleetParameters`, in order; embodied
        carbon is evaluated once per distinct bill of materials and the
        schedule once per distinct (ramp, years)."""
        if not scenarios:
            raise SimulationError("need at least one scenario")
        embodied = embodied or EmbodiedModel()
        horizon = max(params.years for params in scenarios)
        embodied_cache: dict[int, float] = {}

        def per_server_grams(server: ServerConfig) -> float:
            key = id(server.bill)
            if key not in embodied_cache:
                embodied_cache[key] = server.embodied_carbon(embodied).grams
            return embodied_cache[key]

        def column(get: Callable[[FleetParameters], Any], dtype: type = np.float64):
            return np.array([get(p) for p in scenarios], dtype=dtype)

        initial = column(lambda p: p.initial_servers, np.int64)
        growth = column(lambda p: p.annual_growth)
        years = column(lambda p: p.years, np.int64)
        start_years = column(lambda p: p.start_year, np.int64)
        lifetime = column(lambda p: max(int(round(p.server.lifetime_years)), 1), np.int64)
        idle = column(lambda p: p.server.idle_power.watts_value)
        peak = column(lambda p: p.server.peak_power.watts_value)
        utilization = column(lambda p: p.utilization)
        pue = column(lambda p: p.facility.pue)
        location = column(lambda p: p.location_intensity.grams_per_kwh)
        per_server = column(lambda p: per_server_grams(p.server))
        construction = column(lambda p: p.facility.construction_per_year().grams)
        # One schedule per distinct (ramp, years), gathered per scenario.
        keys = [(id(p.renewable_ramp), p.years) for p in scenarios]
        distinct = dict(zip(keys, scenarios))
        slot = {key: row for row, key in enumerate(distinct)}
        rows = [slot[key] for key in keys]
        schedules = [_portfolio_schedule(p, horizon) for p in distinct.values()]
        has, supply, contracted = (np.array(arrays)[rows] for arrays in zip(*schedules))
        return cls(
            initial, growth, years, start_years, lifetime, idle, peak,
            utilization, pue, location, per_server, construction,
            has, supply, contracted,
        )

    def take(self, rows: np.ndarray) -> FleetColumns:
        """The entries at ``rows`` (an index array), as a new block."""
        return FleetColumns(
            *(getattr(self, column.name)[rows] for column in fields(self))
        )


def simulate_fleet_batch(
    scenarios: Sequence[FleetParameters],
    embodied: EmbodiedModel | None = None,
) -> FleetBatchResult:
    """Run many fleet simulations as one years × scenarios kernel (the
    scalar :func:`simulate_fleet` is the reference implementation)."""
    return _fleet_kernel(FleetColumns.from_parameters(scenarios, embodied))


def _fleet_kernel(columns: FleetColumns) -> FleetBatchResult:
    """The years × scenarios fleet kernel: a short Python year loop over
    the numpy scenario axis. The cohort/refresh ring is a rolling gather
    on the purchase history: the cohort retired in year ``i`` is exactly
    the one purchased in year ``i - lifetime``."""
    count, horizon = columns.has_contracts.shape
    initial, growth = columns.initial_servers, columns.annual_growth
    years, lifetime, pue = columns.years, columns.lifetime, columns.pue
    location, contracted = columns.location_g_per_kwh, columns.contracted_g_per_kwh
    per_server, construction = columns.embodied_grams, columns.construction_grams
    has_contracts, supply_joules = columns.has_contracts, columns.supply_joules
    # Same arithmetic order as ServerConfig.power_at/annual_energy.
    idle = columns.idle_watts
    span = columns.peak_watts - idle
    annual_joules = (idle + span * columns.utilization) * SECONDS_PER_YEAR

    servers = np.zeros((count, horizon), dtype=np.int64)
    purchased = np.zeros((count, horizon), dtype=np.int64)
    energy_joules = np.zeros((count, horizon), dtype=np.float64)
    opex_location = np.zeros((count, horizon), dtype=np.float64)
    opex_market = np.zeros((count, horizon), dtype=np.float64)
    capex = np.zeros((count, horizon), dtype=np.float64)
    coverage = np.zeros((count, horizon), dtype=np.float64)

    rows = np.arange(count)
    fleet = initial.copy()
    for index in range(horizon):
        active = index < years
        if index == 0:
            bought = initial
        else:
            grown = np.rint(fleet.astype(np.float64) * (1.0 + growth)).astype(
                np.int64
            )
            retire_from = index - lifetime
            retired = np.where(
                retire_from >= 0,
                purchased[rows, np.maximum(retire_from, 0)],
                0,
            )
            bought = (grown - fleet) + retired
            fleet = np.where(active, grown, fleet)
        purchased[active, index] = bought[active]
        servers[active, index] = fleet[active]

        it_joules = annual_joules * fleet.astype(np.float64)
        total_joules = it_joules * pue
        kwh = total_joules / JOULES_PER_KWH
        year_location = location * kwh

        has = has_contracts[:, index]
        if np.any(has & (total_joules <= 0.0)):
            raise SimulationError("demand must be positive")
        with np.errstate(divide="ignore", invalid="ignore"):
            raw_coverage = np.minimum(
                supply_joules[:, index]
                / np.where(total_joules > 0.0, total_joules, 1.0),
                1.0,
            )
        year_coverage = np.where(has, raw_coverage, 0.0)
        market_intensity = (
            location * (1.0 - year_coverage) + contracted[:, index] * year_coverage
        )
        year_market = np.where(has, market_intensity * kwh, year_location)
        year_capex = per_server * bought.astype(np.float64) + construction

        energy_joules[active, index] = total_joules[active]
        opex_location[active, index] = year_location[active]
        opex_market[active, index] = year_market[active]
        capex[active, index] = year_capex[active]
        coverage[active, index] = year_coverage[active]

    return FleetBatchResult(
        start_years=columns.start_year,
        years=years,
        servers=servers,
        servers_added=purchased,
        energy_joules=energy_joules,
        opex_location_grams=opex_location,
        opex_market_grams=opex_market,
        capex_grams=capex,
        renewable_coverage=coverage,
    )

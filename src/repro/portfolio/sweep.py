"""Fleet-level portfolio sweeps: millions of devices, exact aggregation.

``sweep_portfolio`` evaluates a device catalog against a scenario grid
and aggregates to one row per scenario — fleet embodied / use / total /
replacement-cycle-annualized carbon in tonnes, the embodied share, and
the catalog-mean break-even days. ``sweep_portfolio_uncertain`` runs
the same decision space with distribution-tagged axes (fab-yield and
lifetime bands through the shared :mod:`repro.uncertainty.draws` path)
and returns an :class:`~repro.uncertainty.UncertainResult`.

Sharding is over the *device* axis (scenarios stay whole): each chunk
emits per-(device, cell) detail rows, ``Table.concat`` stacks them —
bit-identical for any chunk/job geometry by construction — and the
driver reduces over devices with :func:`math.fsum`. ``fsum`` is exactly
rounded, so fleet aggregates are not merely reproducible but
*permutation-invariant* over the device axis and independent of chunk
geometry, down to the last bit. Both runners take the
:class:`repro.exec.ExecOptions` settings as keywords.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..analysis.uncertainty import is_distribution
from ..errors import SimulationError
from ..exec import ExecOptions
from ..exec.runner import _run_batch
from ..scenarios.runner import (
    _attach_axes,
    _reject_distribution_values,
    _scalar_axis_names,
)
from ..tabular import Table
from ..uncertainty.draws import _check_records, build_draw_matrix
from ..uncertainty.result import UncertainResult
from ..uncertainty.sweeps import _axes_table, _kept_axis_names, _reshape_metrics
from .batch import _flat, _metrics, _parameter_grid
from .catalog import OVERRIDABLE_FIELDS, DeviceSpec

__all__ = ["PORTFOLIO_METRICS", "sweep_portfolio", "sweep_portfolio_uncertain"]

_KG_PER_TONNE = 1e3

#: Fleet metrics of the aggregated sweep (and the uncertain samples).
PORTFOLIO_METRICS = (
    "embodied_t",
    "use_t",
    "total_t",
    "annual_t",
    "embodied_fraction",
    "break_even_days_mean",
)

#: Per-(device, cell) detail columns the chunk kernels emit.
_DETAIL_METRICS = ("embodied_kg", "use_kg", "annual_kg", "break_even_days")


def _validate_axis_names(records: Sequence[Mapping[str, Any]]) -> None:
    for name in records[0]:
        if name not in OVERRIDABLE_FIELDS:
            raise SimulationError(
                f"cannot sweep {name!r}: portfolio scenarios may override "
                f"{sorted(OVERRIDABLE_FIELDS)}"
            )
    for index, record in enumerate(records):
        if "node" in record and is_distribution(record["node"]):
            raise SimulationError(
                f"scenario {index}: the 'node' axis is categorical and "
                "cannot be distribution-tagged"
            )


def _detail_table(
    start: int, stop: int, cells: int, grid: tuple
) -> Table:
    """Detail rows for devices ``[start, stop)``: device-major flatten."""
    params, node_axis, murphy_mask, names, scenario_fields = grid
    metrics = _metrics(params, node_axis, murphy_mask, names, scenario_fields)
    shape = (stop - start, cells)
    columns: dict[str, Any] = {
        "device": np.repeat(np.arange(start, stop, dtype=np.int64), cells),
        "cell": np.tile(np.arange(cells, dtype=np.int64), stop - start),
        "units": _flat(params["units"], shape),
    }
    for metric in _DETAIL_METRICS:
        columns[metric] = _flat(metrics[metric], shape)
    return Table(columns)


def _portfolio_chunk(payload: tuple, start: int, stop: int) -> Table:
    """Chunk kernel: devices ``[start, stop)`` × every scenario.

    Module-level so :func:`repro.exec.run_sharded` workers can import
    it by name; scenarios are never sharded, so every chunk shares the
    full scenario axis and detail rows concat device-major.
    """
    specs, records = payload
    chunk = specs[start:stop]
    return _detail_table(
        start, stop, len(records), _parameter_grid(chunk, records)
    )


def _portfolio_uncertain_chunk(payload: tuple, start: int, stop: int) -> Table:
    """Chunk kernel: devices ``[start, stop)`` × every (scenario, draw).

    The draw matrix is rebuilt from the full scenario records —
    per-scenario seeded streams make it identical in every chunk — so
    sharding the device axis never perturbs the samples.
    """
    specs, records, draws, seed = payload
    chunk = specs[start:stop]
    matrix = build_draw_matrix(records, draws, seed)
    return _detail_table(
        start, stop, len(records) * draws,
        _parameter_grid(chunk, records, matrix),
    )


def _column_sums(matrix: np.ndarray) -> np.ndarray:
    """Exactly rounded per-column sums over the device axis.

    :func:`math.fsum` is correctly rounded, so the result is the same
    for *any* ordering or chunking of the device rows — the foundation
    of the portfolio's permutation- and shard-invariance guarantees.
    """
    return np.array(
        [
            math.fsum(column)
            for column in np.ascontiguousarray(matrix.T).tolist()
        ],
        dtype=np.float64,
    )


def _aggregate_detail(detail: Table, cells: int) -> "dict[str, np.ndarray]":
    """Reduce per-device detail rows to per-cell fleet aggregates."""
    if cells <= 0 or detail.num_rows % cells:
        raise SimulationError(
            f"detail table has {detail.num_rows} rows, not a multiple of "
            f"{cells} scenario cells"
        )
    devices = detail.num_rows // cells

    def grid_of(name: str) -> np.ndarray:
        return np.asarray(detail.column(name), dtype=np.float64).reshape(
            devices, cells
        )

    units = grid_of("units")
    embodied_sum = _column_sums(grid_of("embodied_kg") * units)
    use_sum = _column_sums(grid_of("use_kg") * units)
    annual_sum = _column_sums(grid_of("annual_kg") * units)
    embodied_t = embodied_sum / _KG_PER_TONNE
    use_t = use_sum / _KG_PER_TONNE
    return {
        "devices": np.full(cells, devices, dtype=np.int64),
        "units": _column_sums(units),
        "embodied_t": embodied_t,
        "use_t": use_t,
        "total_t": embodied_t + use_t,
        "annual_t": annual_sum / _KG_PER_TONNE,
        "embodied_fraction": embodied_sum / (embodied_sum + use_sum),
        "break_even_days_mean": _column_sums(grid_of("break_even_days"))
        / devices,
    }


def _portfolio_table(
    detail: Table, records: Sequence[Mapping[str, Any]], keep: Sequence[str]
) -> Table:
    return _attach_axes(records, Table(_aggregate_detail(detail, len(records))), keep=keep)


def sweep_portfolio(
    catalog: Iterable[DeviceSpec],
    scenarios: Iterable[Mapping[str, Any]],
    **options: Any,
) -> Table:
    """Run a device catalog through a scenario grid, fleet-aggregated.

    Returns one row per scenario: the scenario's scalar axis values,
    then ``devices`` (catalog size), fleet ``units``, and the
    :data:`PORTFOLIO_METRICS` — embodied / use / total /
    replacement-cycle-annualized fleet carbon in tonnes, the embodied
    share of the fleet total, and the catalog-mean break-even days.
    Scenario axes override any numeric :class:`DeviceSpec` field (plus
    the ``node`` name) fleet-wide.

    ``options`` are the :class:`repro.exec.ExecOptions` settings;
    ``jobs``/``chunk_size`` shard the *device* axis, and results are
    element-identical for every geometry and invariant under catalog
    permutation (exactly rounded device sums). Under
    ``on_error="skip"`` the table aggregates only the devices whose
    chunks survived.
    """
    options = ExecOptions(**options)
    specs = tuple(catalog)
    if not specs:
        raise SimulationError("need at least one device in the portfolio")
    records = _check_records(list(scenarios))
    _reject_distribution_values(records)
    _validate_axis_names(records)
    keep = _scalar_axis_names(records)
    detail, report = _run_batch(
        _portfolio_chunk, (specs, records), len(specs), options,
        combine=Table.concat,
        fn="sweep_portfolio", scenarios=len(records), devices=len(specs),
    )
    return options.finish(_portfolio_table(detail, records, keep), report)


def _portfolio_uncertain_result(
    detail: Table,
    records: Sequence[Mapping[str, Any]],
    kept: Sequence[str],
    draws: int,
    seed: int,
) -> UncertainResult:
    aggregates = _aggregate_detail(detail, len(records) * draws)
    flat = Table({metric: aggregates[metric] for metric in PORTFOLIO_METRICS})
    return UncertainResult(
        axes=_axes_table(records, keep=kept),
        samples=_reshape_metrics(
            flat, PORTFOLIO_METRICS, len(records), draws
        ),
        draws=draws,
        seed=seed,
    )


def sweep_portfolio_uncertain(
    catalog: Iterable[DeviceSpec],
    scenarios: Iterable[Mapping[str, Any]],
    *,
    draws: int = 256,
    seed: int = 0,
    **options: Any,
) -> UncertainResult:
    """Portfolio sweep with distribution-tagged scenario axes.

    Tagged axes (fab-yield via ``defect_density_scale``, lifetime via
    ``lifetime_scale``, or any other numeric :class:`DeviceSpec` field)
    are sampled through the shared seeded
    :func:`~repro.uncertainty.draws.build_draw_matrix` path — the same
    per-scenario ``default_rng(seed)`` streams the scalar reference
    consumes — and every (device, scenario, draw) cell goes through the
    batch kernels in one broadcast. Fleet aggregates reduce over
    devices with exactly rounded sums, giving a
    :class:`~repro.uncertainty.UncertainResult` whose
    :data:`PORTFOLIO_METRICS` samples are bit-identical for every
    ``jobs``/``chunk_size`` geometry of the
    :class:`repro.exec.ExecOptions` settings (the *device* axis is what
    shards).
    """
    options = ExecOptions(**options)
    specs = tuple(catalog)
    if not specs:
        raise SimulationError("need at least one device in the portfolio")
    records = _check_records(list(scenarios))
    _validate_axis_names(records)
    if draws <= 0:
        raise SimulationError("draw count must be positive")
    kept = _kept_axis_names(records)
    detail, report = _run_batch(
        _portfolio_uncertain_chunk, (specs, records, draws, seed), len(specs),
        options, combine=Table.concat,
        fn="sweep_portfolio_uncertain", scenarios=len(records), draws=draws,
        devices=len(specs),
    )
    return options.finish(
        _portfolio_uncertain_result(detail, records, kept, draws, seed), report
    )

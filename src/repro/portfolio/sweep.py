"""Fleet-level portfolio sweeps: millions of devices, exact aggregation.

``sweep_portfolio`` evaluates a device catalog against a scenario grid
and aggregates to one row per scenario — fleet embodied / use / total /
replacement-cycle-annualized carbon in tonnes, the embodied share, and
the catalog-mean break-even days. ``sweep_portfolio_uncertain`` runs
the same decision space with distribution-tagged axes (fab-yield and
lifetime bands through the shared :mod:`repro.uncertainty.draws` path)
and returns an :class:`~repro.uncertainty.UncertainResult`.

Sharding is over the *device* axis (scenarios stay whole): each chunk
returns ``(chunk_devices, cells)`` float64 matrices of exactly the
values the fleet sums add up — ``units`` and the unit-weighted
embodied / use / annualized kg, plus break-even days — the driver
stacks them with one ``np.concatenate`` per key, and one aggregation
reduces every column over devices with :func:`math.fsum`. ``fsum`` is
exactly rounded, so fleet aggregates are not merely reproducible but
*permutation-invariant* over the device axis and independent of chunk
geometry, down to the last bit. Both runners take the
:class:`repro.exec.ExecOptions` settings as keywords.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from ..analysis.uncertainty import is_distribution
from ..errors import SimulationError
from ..exec import ExecOptions, FailureReport
from ..exec.options import _public_runner
from ..exec.runner import _run_batch
from ..scenarios.runner import _attach_axes, _reject_distribution_values
from ..tabular import Table
from ..uncertainty.draws import _check_draws, _check_records, build_draw_matrix
from ..uncertainty.result import UncertainResult
from ..uncertainty.sweeps import _axes_table, _reshape_metrics
from .batch import _device_grid, _metrics, _parameter_grid
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


def _summands(grid: tuple, cells: int) -> "dict[str, np.ndarray]":
    """Per-(device, cell) values the fleet sums add up, ``(devices, cells)``.

    ``units`` and the unit-weighted embodied / use / annualized kg
    (``metric * units``, elementwise) feed the fleet totals; the
    unweighted break-even days feed the catalog mean.
    """
    params, _, _, names, _ = grid
    metrics = _metrics(*grid)
    shape = (len(names), cells)
    units = np.broadcast_to(params["units"], shape)
    summands = {
        "units": units,
        "break_even_days": np.broadcast_to(metrics["break_even_days"], shape),
    }
    for metric in ("embodied_kg", "use_kg", "annual_kg"):
        summands[metric] = metrics[metric] * units
    return {
        key: np.ascontiguousarray(value) for key, value in summands.items()
    }


def _portfolio_chunk(payload: tuple, start: int, stop: int) -> dict:
    """Chunk kernel: devices ``[start, stop)`` × every scenario.

    Module-level so :func:`repro.exec.run_sharded` workers can import
    it by name; scenarios are never sharded, so every chunk shares the
    full scenario axis and summand rows stack device-major.
    """
    specs, records = payload
    return _summands(
        _parameter_grid(_device_grid(specs[start:stop]), records), len(records)
    )


def _portfolio_uncertain_chunk(payload: tuple, start: int, stop: int) -> dict:
    """Chunk kernel: devices ``[start, stop)`` × every (scenario, draw).

    The draw matrix is rebuilt from the full scenario records —
    per-scenario seeded streams make it identical in every chunk — so
    sharding the device axis never perturbs the samples.
    """
    specs, records, draws, seed = payload
    matrix = build_draw_matrix(records, draws, seed)
    return _summands(
        _parameter_grid(_device_grid(specs[start:stop]), records, matrix),
        len(records) * draws,
    )


def _stack(chunks: Sequence[dict]) -> "dict[str, np.ndarray]":
    """Combine chunk summands in shard order: device rows stack."""
    return {
        key: np.concatenate([chunk[key] for chunk in chunks])
        for key in chunks[0]
    }


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


def _aggregate(summands: Mapping[str, np.ndarray]) -> "dict[str, np.ndarray]":
    """Reduce stacked per-device summands to per-cell fleet aggregates."""
    devices, cells = summands["units"].shape
    embodied_sum = _column_sums(summands["embodied_kg"])
    use_sum = _column_sums(summands["use_kg"])
    embodied_t = embodied_sum / _KG_PER_TONNE
    use_t = use_sum / _KG_PER_TONNE
    return {
        "devices": np.full(cells, devices, dtype=np.int64),
        "units": _column_sums(summands["units"]),
        "embodied_t": embodied_t,
        "use_t": use_t,
        "total_t": embodied_t + use_t,
        "annual_t": _column_sums(summands["annual_kg"]) / _KG_PER_TONNE,
        "embodied_fraction": embodied_sum / (embodied_sum + use_sum),
        "break_even_days_mean": _column_sums(summands["break_even_days"])
        / devices,
    }


def _fleet_sums(
    kernel: Callable[[Any, int, int], Any],
    catalog: Iterable[DeviceSpec],
    scenarios: Iterable[Mapping[str, Any]],
    options: ExecOptions,
    *payload: Any,
    distributions: bool,
    fn: str,
    **span: Any,
) -> "tuple[list[dict[str, Any]], dict[str, np.ndarray], Any]":
    """Both runners' shared path: validate, run the device shards, aggregate.

    Records may hold distribution values only when ``distributions``
    is set (the uncertain runner); ``payload`` rides after ``(specs,
    records)`` into ``kernel``. Returns the checked records, the
    per-cell fleet aggregates and the failure report.
    """
    specs = tuple(catalog)
    if not specs:
        raise SimulationError("need at least one device in the portfolio")
    records = _check_records(list(scenarios))
    if not distributions:
        _reject_distribution_values(records)
    _validate_axis_names(records)
    summands, report = _run_batch(
        kernel, (specs, records, *payload), len(specs), options,
        combine=_stack, fn=fn, scenarios=len(records), **span,
        devices=len(specs),
    )
    return records, _aggregate(summands), report


@_public_runner
def sweep_portfolio(
    catalog: Iterable[DeviceSpec],
    scenarios: Iterable[Mapping[str, Any]],
    *,
    options: ExecOptions,
) -> "tuple[Table, FailureReport]":
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
    records, aggregates, report = _fleet_sums(
        _portfolio_chunk, catalog, scenarios, options,
        distributions=False, fn="sweep_portfolio",
    )
    return _attach_axes(records, Table(aggregates)), report


@_public_runner
def sweep_portfolio_uncertain(
    catalog: Iterable[DeviceSpec],
    scenarios: Iterable[Mapping[str, Any]],
    *,
    draws: int = 256,
    seed: int = 0,
    options: ExecOptions,
) -> "tuple[UncertainResult, FailureReport]":
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
    _check_draws(draws)
    records, aggregates, report = _fleet_sums(
        _portfolio_uncertain_chunk, catalog, scenarios, options, draws, seed,
        distributions=True, fn="sweep_portfolio_uncertain", draws=draws,
    )
    result = UncertainResult(
        axes=_axes_table(records),
        samples=_reshape_metrics(
            Table(aggregates), PORTFOLIO_METRICS, len(records), draws
        ),
        draws=draws,
        seed=seed,
    )
    return result, report

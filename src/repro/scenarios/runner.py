"""Batched sweep runners: a grid in, a Table of results out.

``sweep_fleet`` builds each chunk's fleet-kernel parameter block
column by column from the scenario dicts (dotted override paths reach
nested dataclasses), never one :class:`FleetParameters` per scenario,
and scores it with one vectorized kernel call. ``sweep_provisioning``
does the same for the heterogeneous-provisioning question. ``SWEEPS``
names a few ready-made decision-space explorations for the
``repro sweep`` CLI; each is a :class:`SweepSpec` of data — a runner
pair, an input factory, point axes and distribution-tagged axes — that
one dispatcher runs in either mode.

Every runner takes the :class:`repro.exec.ExecOptions` settings as
keywords (its ``__wrapped__`` form takes the options value and returns
the internal ``(result, FailureReport)`` pair) and routes through
:func:`repro.exec.run_sharded`: the
scenario axis is split into contiguous chunks (peak kernel memory is
bounded by ``chunk_size`` scenarios) evaluated inline or over a process
pool, and the chunk tables are stacked with
:meth:`repro.tabular.Table.concat`. Sharded results are
element-identical to monolithic runs for any chunk/job configuration
(``tests/test_sharded_equivalence.py``).
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from ..analysis.uncertainty import (
    LogNormal,
    Mixture,
    Normal,
    Triangular,
    is_distribution,
)
from ..core.embodied import EmbodiedModel
from ..data.grids import US_GRID
from ..datacenter import Facility, ServerConfig
from ..datacenter.fleet import (
    FleetBatchResult,
    FleetColumns,
    FleetParameters,
    _fleet_kernel,
    simulate_fleet_batch,
)
from ..datacenter.heterogeneity import (
    ServerType,
    WorkloadClass,
    provision_heterogeneous_batch,
    provision_homogeneous_batch,
)
from ..errors import SimulationError
from ..exec import ExecOptions, FailureReport
from ..exec.options import _public_runner
from ..exec.runner import _run_batch, resolve_kernel
from ..obs.recorder import active_recorder
from ..tabular import Table
from ..traces import canonical_workloads, profile_catalog
from ..traces.evaluate import evaluate_policies
from ..units import CarbonIntensity
from .grid import ScenarioGrid

__all__ = [
    "apply_overrides",
    "OverridePlan",
    "fleet_scenario_parameters",
    "sweep_fleet",
    "sweep_provisioning",
    "sweep_temporal_shifting",
    "SweepSpec",
    "SWEEPS",
    "sweep_names",
    "run_sweep",
    "run_uncertain_sweep",
    "run_cached_sweep",
]

#: Field-name sets per dataclass type; override application is the
#: (scenarios × draws) hot loop of the uncertainty engine, and
#: rebuilding the set on every path lookup dominated it.
_FIELD_NAMES: dict[type, frozenset[str]] = {}


def _field_names(obj: Any) -> frozenset[str]:
    cls = type(obj)
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = (
            frozenset(field.name for field in dataclasses.fields(obj))
            if dataclasses.is_dataclass(obj)
            else frozenset()
        )
        _FIELD_NAMES[cls] = names
    return names


def apply_overrides(base: Any, overrides: Mapping[str, Any]) -> Any:
    """Return ``base`` with dotted-path dataclass fields replaced.

    ``apply_overrides(params, {"server.lifetime_years": 3.0})`` rebuilds
    the nested frozen dataclasses along the path; every other field is
    shared with ``base``.
    """
    result = base
    for path, value in overrides.items():
        result = _replace_path(result, path, value)
    return result


def _replace_path(obj: Any, path: str, value: Any) -> Any:
    head, _, rest = path.partition(".")
    if head not in _field_names(obj):
        raise SimulationError(
            f"cannot override {path!r}: {type(obj).__name__} has no field "
            f"{head!r}"
        )
    if rest:
        value = _replace_path(getattr(obj, head), rest, value)
    return dataclasses.replace(obj, **{head: value})


class OverridePlan:
    """Compiled dotted-path overrides for one fixed set of paths.

    ``apply_overrides`` walks and validates each path on every call and
    rebuilds every dataclass along it per path; applying the *same*
    paths tens of thousands of times — the (scenarios × draws)
    expansion in :mod:`repro.uncertainty` — wants that work hoisted.
    The plan validates the paths against a template object once,
    groups them by the nested object they touch, and then applies all
    of a draw's values with one ``dataclasses.replace`` per touched
    object. For disjoint paths the result is value-identical to
    sequential :func:`apply_overrides`.
    """

    def __init__(self, template: Any, paths: Sequence[str]) -> None:
        self._paths = tuple(paths)
        self._path_set = frozenset(self._paths)
        if len(self._path_set) != len(self._paths):
            raise SimulationError(f"duplicate override paths in {list(paths)}")
        self._tree = self._compile(template, self._paths, "")

    @property
    def paths(self) -> tuple[str, ...]:
        return self._paths

    @staticmethod
    def _compile(
        template: Any, paths: Sequence[str], prefix: str
    ) -> dict[str, Any]:
        """Group paths into a field tree: leaf -> None, node -> subtree."""
        by_head: dict[str, list[str]] = {}
        for path in paths:
            head, _, rest = path.partition(".")
            if head not in _field_names(template):
                full = f"{prefix}{path}"
                raise SimulationError(
                    f"cannot override {full!r}: "
                    f"{type(template).__name__} has no field {head!r}"
                )
            by_head.setdefault(head, []).append(rest)
        tree: dict[str, Any] = {}
        for head, rests in by_head.items():
            if all(rests):
                tree[head] = OverridePlan._compile(
                    getattr(template, head), rests, f"{prefix}{head}."
                )
            elif len(rests) == 1:
                tree[head] = None
            else:
                raise SimulationError(
                    f"conflicting override paths: {prefix}{head!r} overlaps "
                    + str([
                        f"{prefix}{head}.{rest}" for rest in rests if rest
                    ])
                )
        return tree

    def apply(self, base: Any, values: Mapping[str, Any]) -> Any:
        """``base`` with every planned path replaced by ``values[path]``."""
        if values.keys() != self._path_set:
            raise SimulationError(
                f"plan covers {list(self._paths)}, got values for "
                f"{list(values)}"
            )
        return self._apply(base, self._tree, "", values)

    def _apply(
        self, obj: Any, tree: dict[str, Any], prefix: str, values: Mapping[str, Any]
    ) -> Any:
        kwargs = {}
        for head, subtree in tree.items():
            path = f"{prefix}{head}"
            if subtree is None:
                kwargs[head] = values[path]
            else:
                kwargs[head] = self._apply(
                    getattr(obj, head), subtree, f"{path}.", values
                )
        return dataclasses.replace(obj, **kwargs)


def _reject_distribution_values(scenarios: Sequence[Mapping[str, Any]]) -> None:
    """Deterministic runners cannot evaluate distribution-tagged axes."""
    for index, scenario in enumerate(scenarios):
        tagged = [name for name, value in scenario.items() if is_distribution(value)]
        if tagged:
            raise SimulationError(
                f"scenario {index} tags {tagged} with distributions; "
                "deterministic sweeps need point values — run it through "
                "repro.uncertainty (sweep_fleet_uncertain / "
                "'repro sweep --draws N') instead"
            )


def fleet_scenario_parameters(
    base: FleetParameters, scenarios: Iterable[Mapping[str, Any]]
) -> list[FleetParameters]:
    """One :class:`FleetParameters` per scenario dict."""
    records = [dict(scenario) for scenario in scenarios]
    _reject_distribution_values(records)
    return _expand_parameters(base, records)


def _expand_parameters(
    base: FleetParameters, records: Sequence[Mapping[str, Any]], matrix: Any = None
) -> list[FleetParameters]:
    """One :class:`FleetParameters` per (record, draw), scenario-major:
    point values in key order, then each draw of ``matrix`` (a
    :class:`~repro.uncertainty.DrawMatrix`, ``None`` for one draw)
    through a compiled :class:`OverridePlan`. The columnar oracle."""
    names, draws = (matrix.names, matrix.draws) if matrix is not None else ((), 1)
    plan = OverridePlan(base, names) if names else None
    expanded: list[FleetParameters] = []
    for index, record in enumerate(records):
        fixed = {name: value for name, value in record.items() if name not in names}
        scenario_base = apply_overrides(base, fixed) if fixed else base
        if plan is None:
            expanded.extend([scenario_base] * draws)
            continue
        columns = [matrix.values[name][index] for name in names]
        expanded.extend(
            plan.apply(scenario_base, {
                name: float(column[draw]) for name, column in zip(names, columns)
            })
            for draw in range(draws)
        )
    return expanded


#: Columnar leaf paths -> (FleetColumns field, the owning dataclass's
#: __post_init__ raise condition, elementwise as written there).
_LEAF_COLUMNS: dict[str, tuple[str, Callable[[np.ndarray], np.ndarray]]] = {
    "annual_growth": ("annual_growth", lambda v: v < 0.0),
    "utilization": ("utilization", lambda v: ~((0.0 <= v) & (v <= 1.0))),
    # Also flags NaN, inf and values past float64's exact integers.
    "server.lifetime_years": ("lifetime", lambda v: (v <= 0.0) | ~(v < 2.0**53)),
    "facility.pue": ("pue", lambda v: v < 1.0),
}

#: Leaf values a float64 column holds exactly; anything else (strings,
#: None, numpy bools, long doubles) takes the per-row path.
_LEAF_NUMBERS = (int, float, np.integer, np.float32, np.float16)


def _fleet_columns(
    base: FleetParameters,
    records: Sequence[Mapping[str, Any]],
    embodied: EmbodiedModel | None,
    matrix: Any = None,
) -> FleetColumns | None:
    """The :func:`_expand_parameters` rows as a kernel block, by column.

    Leaf paths become float64 columns (point values repeat over draws,
    sampled ones are the draw matrix's rows); every other path goes
    through :func:`apply_overrides` once per distinct combination of
    value objects, gathered per row. A leaf set before a later path that
    replaces its owner applies with that path. ``None`` when a leaf
    value is not a plain number or fails its dataclass check.
    """
    tagged = matrix.values if matrix is not None else {}
    draws = matrix.draws if matrix is not None else 1
    if tagged:
        OverridePlan(base, matrix.names)  # the per-row path's path checks
    sampled = [name for name in tagged if name not in _LEAF_COLUMNS]
    combos: dict[tuple, tuple[int, list]] = {}  # key -> (slot, overrides)
    inverse = np.empty((len(records), draws), dtype=np.intp)
    leaves = {path: ([], []) for path in _LEAF_COLUMNS if path not in tagged}
    layouts: dict[tuple, list[int]] = {}
    for index, record in enumerate(records):
        layouts.setdefault(tuple(record), []).append(index)
    for keys, indices in layouts.items():
        fixed = [path for path in keys if path not in tagged]
        structural = [path for position, path in enumerate(fixed) if path not in leaves
                      or path.rpartition(".")[0] in fixed[position:]]
        for path in fixed:
            if path not in structural:
                leaves[path][0].extend(indices)
                leaves[path][1].extend(records[index][path] for index in indices)
        if not structural and not sampled:
            inverse[indices] = combos.setdefault((), (len(combos), []))[0]
            continue
        for index in indices:
            items = [(path, records[index][path]) for path in structural]
            key = tuple((path, id(value)) for path, value in items)
            if not sampled:
                inverse[index] = combos.setdefault(key, (len(combos), items))[0]
                continue
            for draw in range(draws):
                point = [(name, float(tagged[name][index, draw])) for name in sampled]
                combo = (len(combos), items + point)
                inverse[index, draw] = combos.setdefault(key + tuple(point), combo)[0]
    params = [apply_overrides(base, dict(items)) for _, items in combos.values()]
    exact = (FleetParameters, ServerConfig, Facility)
    if any((type(p), type(p.server), type(p.facility)) != exact for p in params):
        return None
    columns = FleetColumns.from_parameters(params, embodied)
    rows = inverse.reshape(-1)
    if not np.array_equal(rows, np.arange(rows.size)):
        columns = columns.take(rows)
    for path, (name, invalid) in _LEAF_COLUMNS.items():
        if path in tagged:
            at, values = slice(None), tagged[path]
        elif leaves[path][0]:
            at, raw = leaves[path]
            if not all(isinstance(value, _LEAF_NUMBERS) for value in raw):
                return None
            values = np.array(raw, dtype=np.float64)[:, None]
        else:
            continue
        if np.any(invalid(values)):
            return None
        if name == "lifetime":
            values = np.maximum(np.rint(values), 1.0).astype(np.int64)
        getattr(columns, name).reshape(len(records), draws)[at] = values
    return columns


def _fleet_batch(
    base: FleetParameters,
    records: Sequence[Mapping[str, Any]],
    embodied: EmbodiedModel | None,
    matrix: Any = None,
) -> FleetBatchResult:
    """The fleet kernel over every (record, draw) row, scenario-major.

    A chunk the columnar expansion flags, or whose group build raises,
    reruns through :func:`_expand_parameters` and the list adapter, so
    the result (or the exception) is exactly the per-row path's.
    """
    try:
        columns = _fleet_columns(base, records, embodied, matrix)
    except Exception:  # the per-row path raises its own, first bad row first
        columns = None
    if columns is None:
        return simulate_fleet_batch(_expand_parameters(base, records, matrix), embodied)
    return _fleet_kernel(columns)


def _fleet_chunk(payload: tuple, start: int, stop: int) -> Table:
    """Chunk kernel: scenarios ``[start, stop)`` of a fleet sweep.

    Module-level so :func:`repro.exec.run_sharded` workers can import
    it by name; axis-column selection (``keep``) is decided over the
    *full* record list, so every chunk emits identical columns.
    """
    base, records, embodied, keep = payload
    chunk = records[start:stop]
    batch = _fleet_batch(base, chunk, embodied)
    return _attach_axes(chunk, batch.final_year_columns(), keep=keep)


@_public_runner
def sweep_fleet(
    base: FleetParameters,
    scenarios: Iterable[Mapping[str, Any]],
    embodied: EmbodiedModel | None = None,
    *,
    options: ExecOptions,
) -> "tuple[Table, FailureReport]":
    """Run a fleet scenario sweep through the batched kernel.

    Returns one row per scenario: the scenario's axis values followed
    by its final simulated year's fleet metrics. ``options`` are the
    :class:`repro.exec.ExecOptions` settings; ``jobs``/``chunk_size``
    shard the scenario axis and the result is element-identical for
    every configuration.
    """
    records = [dict(scenario) for scenario in scenarios]
    if not records:
        raise SimulationError("need at least one scenario")
    _reject_distribution_values(records)
    payload = (base, records, embodied, _scalar_axis_names(records))
    return _run_batch(
        _fleet_chunk, payload, len(records), options, combine=Table.concat,
        fn="sweep_fleet", scenarios=len(records),
    )


def _reject_distribution_axis(name: str, values: np.ndarray) -> None:
    """Array axes of a deterministic sweep must be numeric."""
    if values.dtype == object:
        raise SimulationError(
            f"axis {name!r} holds non-numeric values (distribution-tagged "
            "axes go through repro.uncertainty.sweep_provisioning_uncertain "
            "or 'repro sweep --draws N')"
        )


def _scalar_axis_names(
    records: Sequence[Mapping[str, Any]],
    label: Callable[[Any], Any] = lambda value: value,
) -> list[str]:
    """Axis names whose values are plain scalars in *every* scenario.

    Axis values may be rich objects (portfolios, servers); only scalar
    axes become result columns. The decision is global so chunked runs
    keep exactly the columns a monolithic run would. ``label`` maps
    values before the check — the uncertain sweeps pass
    :func:`repro.uncertainty.axis_label` so distribution tags (which
    render as strings) also qualify.
    """
    return [
        name
        for name in records[0]
        if all(
            isinstance(label(record[name]), (int, float, str, bool))
            for record in records
        )
    ]


def _attach_axes(
    records: Sequence[Mapping[str, Any]],
    results: "Table | Mapping[str, Any]",
    keep: Sequence[str] | None = None,
) -> Table:
    """Prefix result rows (a table, or columns by name) with their
    scenario's axis values."""
    if not records:
        raise SimulationError("need at least one scenario")
    if keep is None:
        keep = _scalar_axis_names(records)
    columns: dict[str, Any] = {
        name.replace(".", "_"): [record[name] for record in records]
        for name in keep
    }
    if isinstance(results, Table):
        results = {name: results.column(name) for name in results.column_names}
    for name, values in results.items():
        if name != "scenario":
            columns[name] = values
    return Table(columns)


def _provisioning_metrics(
    fleet: tuple, targets: np.ndarray, scales: np.ndarray
) -> "dict[str, np.ndarray]":
    """Homogeneous vs heterogeneous provisioning metrics per scenario.

    ``fleet`` is ``(workloads, general, server_types, grid, model)``;
    the point and uncertain provisioning sweeps share these result
    columns, elementwise along the (target, scale) axis.
    """
    workloads, general, server_types, grid, model = fleet
    homogeneous = provision_homogeneous_batch(
        workloads, general, targets, scales
    )
    heterogeneous = provision_heterogeneous_batch(
        workloads, server_types, targets, scales
    )
    homo_total = homogeneous.total_per_year_grams(grid, model)
    hetero_total = heterogeneous.total_per_year_grams(grid, model)
    return {
        "servers_homogeneous": homogeneous.total_servers(),
        "servers_heterogeneous": heterogeneous.total_servers(),
        "total_t_homogeneous": homo_total / 1e6,
        "total_t_heterogeneous": hetero_total / 1e6,
        "carbon_saving_fraction": 1.0 - hetero_total / homo_total,
    }


def _provisioning_chunk(payload: tuple, start: int, stop: int) -> Table:
    """Chunk kernel: scenarios ``[start, stop)`` of a provisioning sweep.

    The provisioning kernels are elementwise along the scenario axis,
    so slicing the (target, scale) arrays yields exactly the rows a
    monolithic call would produce for those scenarios.
    """
    fleet, target_axis, scale_axis = payload
    targets = target_axis[start:stop]
    scales = scale_axis[start:stop]
    return Table(
        {
            "utilization_target": targets,
            "demand_scale": scales,
            **_provisioning_metrics(fleet, targets, scales),
        }
    )


@_public_runner
def sweep_provisioning(
    workloads: Sequence[WorkloadClass],
    general: ServerType,
    server_types: Sequence[ServerType],
    utilization_targets: "float | Sequence[float]" = 0.6,
    demand_scales: "float | Sequence[float]" = 1.0,
    grid: CarbonIntensity | None = None,
    model: EmbodiedModel | None = None,
    *,
    options: ExecOptions,
) -> "tuple[Table, FailureReport]":
    """Homogeneous vs heterogeneous provisioning across scenarios.

    Scenario axes are the cartesian product of utilization targets and
    demand scale factors; both fleets are provisioned by the batched
    kernels and priced in embodied + operational carbon. ``options``
    are the :class:`repro.exec.ExecOptions` settings; sharding the
    scenario axis leaves the results element-identical.
    """
    grid = grid or US_GRID.intensity
    model = model or EmbodiedModel()
    _reject_distribution_axis(
        "utilization_targets", np.atleast_1d(np.asarray(utilization_targets))
    )
    _reject_distribution_axis(
        "demand_scales", np.atleast_1d(np.asarray(demand_scales))
    )
    targets = np.atleast_1d(np.asarray(utilization_targets, dtype=np.float64))
    scales = np.atleast_1d(np.asarray(demand_scales, dtype=np.float64))
    target_axis = np.repeat(targets, len(scales))
    scale_axis = np.tile(scales, len(targets))
    fleet = (tuple(workloads), general, tuple(server_types), grid, model)
    payload = (fleet, target_axis, scale_axis)
    size = int(target_axis.shape[0])
    return _run_batch(
        _provisioning_chunk, payload, size, options, combine=Table.concat,
        fn="sweep_provisioning", scenarios=size,
    )


def _provisioning_grid(
    mix: tuple, scenarios: ScenarioGrid, *, options: ExecOptions
) -> "tuple[Table, FailureReport]":
    """:func:`sweep_provisioning` as a registered runner: the
    ``(workloads, general, server_types)`` mix, then a grid whose axes
    are the runner's axis keywords."""
    return sweep_provisioning.__wrapped__(*mix, **scenarios.axes, options=options)


def _check_shifting_hours(hours: int) -> None:
    """The temporal-shifting sweeps' canonical workloads span two days."""
    if hours < 48:
        raise SimulationError(
            "the temporal-shifting sweep's workloads span two days; "
            f"need hours >= 48, got {hours}"
        )


@_public_runner
def sweep_temporal_shifting(
    hours: int = 72,
    *,
    capacity_kw: float = 2500.0,
    stochastic_seeds: "tuple[int, ...]" = (0, 1),
    options: ExecOptions,
) -> "tuple[Table, FailureReport]":
    """Carbon-aware scheduling across the bundled trace catalog.

    Runs the default policy spectrum (agnostic / aware / slack-bounded)
    over every bundled intensity profile and two canonical workload
    streams through the batched evaluator — the temporal analogue of
    the fleet and provisioning sweeps. The canonical workloads span
    two days, so the horizon must cover at least 48 hours.
    ``options`` are the :class:`repro.exec.ExecOptions` settings of
    the evaluator, which shards the trace axis.
    """
    _check_shifting_hours(hours)
    return evaluate_policies.__wrapped__(
        profile_catalog(hours, stochastic_seeds=stochastic_seeds),
        canonical_workloads(),
        capacity_kw=capacity_kw,
        options=options,
    )


@dataclass(frozen=True)
class SweepSpec:
    """A named, CLI-runnable decision-space exploration, as data.

    ``runners`` names the point runner and the uncertain runner as
    ``"module:function"``, resolved when the sweep runs, so the
    registry reaches runners in modules that import this one. Each
    takes the value of the ``inputs`` factory (also a
    ``"module:function"`` name; ``None`` for none), then the sweep's
    axes as one :class:`ScenarioGrid` (none when the axes are empty),
    then the :class:`repro.exec.ExecOptions` value as ``options`` —
    and the uncertain runner ``draws`` and ``seed`` — and returns the
    internal ``(result, FailureReport)`` pair.

    ``axes`` are the point sweep's scenario axes; ``uncertain_axes``
    are the uncertain sweep's, in full: the elusive parameters are
    distribution tags (``repro sweep NAME --draws N``), and the two
    grids need not share their axes.
    """

    name: str
    description: str
    runners: "tuple[str, str]"
    inputs: "str | None"
    axes: Mapping[str, Sequence[Any]]
    uncertain_axes: Mapping[str, Sequence[Any]]


_FLEET_RUNNERS = (
    "repro.scenarios.runner:sweep_fleet",
    "repro.uncertainty.sweeps:sweep_fleet_uncertain",
)
_FLEET_INPUTS = "repro.scenarios.presets:facebook_like_fleet"
_GROWTH_LIFETIME = {
    "annual_growth": [0.0, 0.1, 0.25, 0.5],
    "server.lifetime_years": [2.0, 3.0, 4.0, 6.0],
}
_PUE_UTILIZATION = {
    "facility.pue": [1.07, 1.1, 1.25, 1.5],
    "utilization": [0.25, 0.45, 0.65, 0.85],
}
_TARGETS_SCALES = {
    "utilization_targets": [0.4, 0.5, 0.6, 0.7, 0.8],
    "demand_scales": [0.5, 1.0, 2.0, 4.0],
}

SWEEPS: dict[str, SweepSpec] = {
    spec.name: spec
    for spec in (
        SweepSpec(
            name="fleet_growth_lifetime",
            description=(
                "Final-year opex/capex split of the Facebook-like fleet "
                "across growth rates and server lifetimes"
            ),
            runners=_FLEET_RUNNERS,
            inputs=_FLEET_INPUTS,
            axes=_GROWTH_LIFETIME,
            # PUE and utilization left elusive.
            uncertain_axes={
                **_GROWTH_LIFETIME,
                "facility.pue": [Triangular(1.07, 1.10, 1.30)],
                "utilization": [Normal(0.45, 0.05)],
            },
        ),
        SweepSpec(
            name="fleet_pue_utilization",
            description=(
                "Final-year fleet footprint across facility PUE and "
                "steady-state utilization"
            ),
            runners=_FLEET_RUNNERS,
            inputs=_FLEET_INPUTS,
            axes=_PUE_UTILIZATION,
            # Growth and lifetime left elusive.
            uncertain_axes={
                **_PUE_UTILIZATION,
                "annual_growth": [Normal(0.25, 0.05)],
                "server.lifetime_years": [
                    Mixture.discrete({3.0: 0.3, 4.0: 0.5, 6.0: 0.2})
                ],
            },
        ),
        SweepSpec(
            name="provisioning_mix",
            description=(
                "Homogeneous vs heterogeneous provisioning carbon across "
                "utilization targets and demand scales"
            ),
            runners=(
                "repro.scenarios.runner:_provisioning_grid",
                "repro.uncertainty.sweeps:_provisioning_uncertain_grid",
            ),
            inputs="repro.scenarios.presets:example_service_mix",
            axes=_TARGETS_SCALES,
            # A log-normal demand forecast.
            uncertain_axes={
                **_TARGETS_SCALES,
                "demand_scales": [LogNormal.from_median(1.0, 0.35)],
            },
        ),
        SweepSpec(
            name="temporal_shifting",
            description=(
                "Carbon-aware scheduling policies across the bundled "
                "intensity-trace catalog and canonical workloads"
            ),
            runners=(
                "repro.scenarios.runner:sweep_temporal_shifting",
                "repro.uncertainty.sweeps:sweep_temporal_shifting_uncertain",
            ),
            inputs=None,
            # The trace catalog is the decision space; the uncertain
            # variant draws seeded weather/demand noise per trace.
            axes={},
            uncertain_axes={},
        ),
        SweepSpec(
            name="portfolio",
            description=(
                "Fleet embodied + use-phase carbon of the default device "
                "catalog across node-shrink, fab-grid, and lifetime axes"
            ),
            runners=(
                "repro.portfolio.sweep:sweep_portfolio",
                "repro.portfolio.sweep:sweep_portfolio_uncertain",
            ),
            inputs="repro.portfolio.catalog:default_catalog",
            axes={
                "node_shift": [0.0, 1.0, 2.0],
                "fab_intensity_g_per_kwh": [583.0, 250.0],
                "lifetime_scale": [1.0, 1.5],
            },
            # Fab yield and lifetime left elusive; the fab grid is fixed.
            uncertain_axes={
                "node_shift": [0.0, 1.0, 2.0],
                "defect_density_scale": [LogNormal.from_median(1.0, 0.25)],
                "lifetime_scale": [Triangular(0.8, 1.0, 1.4)],
            },
        ),
    )
}


def sweep_names() -> list[str]:
    """The registered sweep names, in registry order."""
    return list(SWEEPS)


def _dispatch(
    name: str, options: ExecOptions, draws: "int | None" = None, seed: int = 0
) -> "tuple[Any, FailureReport]":
    """Run a named sweep's point (``draws=None``) or uncertain variant
    in its ``sweep`` span; returns the internal ``(result, report)``."""
    if name not in SWEEPS:
        raise SimulationError(
            f"unknown sweep {name!r}; have {sweep_names()}"
        )
    spec, point = SWEEPS[name], draws is None
    axes = spec.axes if point else spec.uncertain_axes
    mode = {} if point else {"draws": draws, "seed": seed}
    fields = {"mode": "point"} if point else {"mode": "uncertain", **mode}
    with active_recorder().span("sweep", name=name, **fields) as span:
        inputs = (resolve_kernel(spec.inputs)(),) if spec.inputs else ()
        grid = (ScenarioGrid(**axes),) if axes else ()
        run = inspect.unwrap(resolve_kernel(spec.runners[0 if point else 1]))
        result, report = run(*inputs, *grid, options=options, **mode)
        span.note(
            rows=result.num_rows if point else result.num_scenarios * result.draws
        )
        return result, report


def run_sweep(name: str, **options: Any) -> Table:
    """Run one named sweep and return its result table.

    ``options`` are the :class:`repro.exec.ExecOptions` settings,
    forwarded to the sweep's runner; the table is identical for every
    ``jobs``/``chunk_size``, and under ``on_error="skip"`` the return
    value is the ``(Table, FailureReport)`` pair.
    """
    options = ExecOptions(**options)
    return options.finish(*_dispatch(name, options))


def run_uncertain_sweep(
    name: str, draws: int, seed: int = 0, **options: Any
) -> Any:
    """Run one named sweep's distribution-tagged variant.

    Returns the :class:`repro.uncertainty.UncertainResult` (under
    ``on_error="skip"``, the ``(result, FailureReport)`` pair).
    ``options`` are the :class:`repro.exec.ExecOptions` settings:
    sharding preserves the per-scenario seeded draw streams, so the
    samples are bit-identical for every ``jobs``/``chunk_size`` — and
    across recovered worker failures.
    """
    options = ExecOptions(**options)
    return options.finish(*_dispatch(name, options, draws, seed))


def run_cached_sweep(
    name: str,
    draws: "int | None" = None,
    seed: int = 0,
    *,
    cache: Any = None,
    resume: bool = True,
    **options: Any,
) -> "tuple[Any, FailureReport | None, bool]":
    """One named sweep through the shared result cache.

    Returns ``(result, report, cached)``: the :class:`~repro.tabular.Table`
    (``draws=None``) or :class:`~repro.uncertainty.UncertainResult`,
    the :class:`~repro.exec.FailureReport` (``None`` under
    ``on_error="raise"``), and whether the result came from ``cache``.

    With a :class:`~repro.exec.ResultCache` the key folds in the sweep
    name, mode (draws and seed) and the package source fingerprint —
    never ``jobs``/``chunk_size``, since sharded runs are bit-identical,
    so every parallelism level warm-starts every other. A wrong-typed
    entry is a miss, a miss runs with chunk checkpoints under the
    cache directory (consumed only when ``resume`` is set), and a
    partial result is never cached. ``options`` are the
    :class:`repro.exec.ExecOptions` settings.
    """
    from ..exec import CheckpointStore, cache_key, package_fingerprint
    from ..uncertainty import UncertainResult

    if draws is None:
        parts: "tuple[object, ...]" = ("sweep", name, "point")
        kind: type = Table
    else:
        parts = ("sweep", name, draws, seed)
        kind = UncertainResult
    if cache is not None:
        key = cache_key(*parts, package_fingerprint())
        result = cache.get(key)
        if isinstance(result, kind):
            return result, None, True
        options["checkpoint"] = CheckpointStore(
            cache.directory, spec_parts=parts, consume=resume
        )
    options = ExecOptions(**options)
    result, report = _dispatch(name, options, draws, seed)
    if cache is not None and not report:
        cache.put(key, result)
    return result, report if options.on_error == "skip" else None, False

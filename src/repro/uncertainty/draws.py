"""Draw matrices: one seeded (scenarios × draws) sample per parameter.

The bridge between distribution-tagged scenarios and the batched
kernels. A scenario dict may mix point values with distribution tags
from :mod:`repro.analysis.uncertainty`; :func:`build_draw_matrix`
samples every tagged parameter into a ``(scenarios, draws)`` matrix in
one pass, and :func:`expand_records` flattens the cross-product into
``scenarios × draws`` plain scenario dicts (scenario-major,
draw-minor) ready for a single batched kernel call.

Seeding discipline: each scenario draws from its *own*
``np.random.default_rng(seed)`` stream, consuming it only for
distribution-tagged entries in scenario-key order. Two consequences,
both load-bearing:

* a scenario's draws are exactly what the scalar reference
  ``monte_carlo(model, spec, samples=draws, seed=seed)`` would draw for
  the same spec — the equivalence suite pins batched sweeps to the
  scalar path bit for bit; and
* a scenario's draws do not depend on which other scenarios share the
  sweep, so results are reproducible across subsetting, reordering,
  and parallel partitioning. Scenarios with identical distributions
  share identical draws (common random numbers), which cancels
  sampling noise out of cross-scenario comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from ..analysis.uncertainty import is_distribution
from ..errors import SimulationError

__all__ = [
    "DrawMatrix",
    "split_scenario",
    "build_draw_matrix",
    "expand_records",
]


def split_scenario(
    scenario: Mapping[str, Any],
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Partition one scenario into (fixed, distribution-tagged) parts."""
    fixed: dict[str, Any] = {}
    uncertain: dict[str, Any] = {}
    for name, value in scenario.items():
        (uncertain if is_distribution(value) else fixed)[name] = value
    return fixed, uncertain


@dataclass(frozen=True)
class DrawMatrix:
    """Sampled values for every uncertain parameter of a sweep.

    ``values`` maps parameter path to a ``(scenarios, draws)`` float
    array; ``names`` preserves scenario-key order. Parameters that are
    point values in one scenario but tagged in another appear as
    constant rows, so every scenario shares the same draw-matrix shape.
    """

    names: tuple[str, ...]
    values: dict[str, np.ndarray]
    draws: int
    seed: int
    num_scenarios: int

    def __post_init__(self) -> None:
        if self.draws <= 0:
            raise SimulationError("draw count must be positive")
        if self.num_scenarios <= 0:
            raise SimulationError("need at least one scenario")
        if set(self.names) != set(self.values):
            raise SimulationError(
                f"draw names {list(self.names)} do not match sampled "
                f"parameters {sorted(self.values)}"
            )
        for name in self.names:
            shape = self.values[name].shape
            if shape != (self.num_scenarios, self.draws):
                raise SimulationError(
                    f"draws for {name!r} have shape {shape}, expected "
                    f"{(self.num_scenarios, self.draws)}"
                )

    def overrides(self, scenario: int, draw: int) -> dict[str, float]:
        """The point overrides of one (scenario, draw) cell."""
        self._check_scenario(scenario)
        if not 0 <= draw < self.draws:
            raise SimulationError(
                f"draw index {draw} out of range [0, {self.draws})"
            )
        return {
            name: float(self.values[name][scenario, draw])
            for name in self.names
        }

    def _check_scenario(self, scenario: int) -> None:
        if not 0 <= scenario < self.num_scenarios:
            raise SimulationError(
                f"scenario index {scenario} out of range "
                f"[0, {self.num_scenarios})"
            )


def _check_draws(draws: int) -> None:
    """Every uncertain runner's draw-count check, run before any work."""
    if draws <= 0:
        raise SimulationError("draw count must be positive")


def _check_records(
    scenarios: Sequence[Mapping[str, Any]],
) -> list[dict[str, Any]]:
    records = [dict(record) for record in scenarios]
    if not records:
        raise SimulationError("need at least one scenario")
    names = list(records[0])
    for record in records:
        if list(record) != names:
            raise SimulationError(
                "every scenario must define the same parameters in the "
                f"same order; expected {names}, got {list(record)}"
            )
    return records


def build_draw_matrix(
    scenarios: Sequence[Mapping[str, Any]], draws: int, seed: int = 0
) -> DrawMatrix:
    """Sample every distribution-tagged parameter of a scenario list.

    A parameter is uncertain when *any* scenario tags it; scenarios
    where it is a plain number contribute constant rows. Each scenario
    consumes a fresh ``default_rng(seed)`` in scenario-key order (see
    the module docstring for why).
    """
    _check_draws(draws)
    records = _check_records(scenarios)
    names = tuple(
        name
        for name in records[0]
        if any(is_distribution(record[name]) for record in records)
    )
    name_set = frozenset(names)
    values = {
        name: np.empty((len(records), draws), dtype=np.float64)
        for name in names
    }
    for index, record in enumerate(records):
        rng = np.random.default_rng(seed)
        for name, value in record.items():
            if name not in name_set:
                continue
            if is_distribution(value):
                values[name][index] = value.sample(rng, draws)
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                values[name][index] = float(value)
            else:
                raise SimulationError(
                    f"parameter {name!r} is distribution-tagged in another "
                    f"scenario but holds non-numeric {value!r} in scenario "
                    f"{index}"
                )
    return DrawMatrix(
        names=names,
        values=values,
        draws=draws,
        seed=seed,
        num_scenarios=len(records),
    )


def expand_records(
    scenarios: Sequence[Mapping[str, Any]], matrix: DrawMatrix
) -> list[dict[str, Any]]:
    """Flatten (scenarios × draws) into plain point-value scenarios.

    Row-major: scenario index varies slowest, draw index fastest, so
    flattened index ``s * draws + d`` addresses cell ``(s, d)`` — the
    axis convention every batched uncertain sweep shares.
    """
    records = _check_records(scenarios)
    if len(records) != matrix.num_scenarios:
        raise SimulationError(
            f"{len(records)} scenarios but draw matrix covers "
            f"{matrix.num_scenarios}"
        )
    expanded: list[dict[str, Any]] = []
    for index, record in enumerate(records):
        fixed = {
            name: value
            for name, value in record.items()
            if name not in matrix.values
        }
        columns = [matrix.values[name][index] for name in matrix.names]
        for draw in range(matrix.draws):
            cell = dict(fixed)
            for name, column in zip(matrix.names, columns):
                cell[name] = float(column[draw])
            expanded.append(cell)
    return expanded

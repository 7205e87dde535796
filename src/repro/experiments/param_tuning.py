"""Experiment E5 — Table 5: DOTIL parameter sweep.

Section 6.3.1 sweeps DOTIL's five parameters one at a time (the others held
at their Table 4 defaults) on half of the random YAGO workload, reporting TTI
and the summed Q-matrix for every value.  The qualitative findings:

* ``r_BG`` has an interior optimum around 25%,
* TTI is largely insensitive to ``prob`` (it only changes training volume),
* ``alpha`` has an interior optimum around 0.5,
* ``gamma`` has an interior optimum around 0.7,
* larger ``lambda`` increases the Q-values (bigger counterfactual gap) at the
  price of longer offline training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.config import DEFAULT_CONFIG, DotilConfig
from repro.core.runner import run_workload
from repro.core.variants import RDBGDB
from repro.workload.templates import split_batches
from repro.workload.yago import generate_yago, yago_workload

from repro.experiments.settings import DEFAULT_SETTINGS, ExperimentSettings

__all__ = ["ParameterSweepRow", "PARAMETER_GRID", "run_parameter_sweep", "format_parameter_sweep"]

#: The paper's Table 5 value grid for every parameter.
PARAMETER_GRID: Dict[str, Sequence[float]] = {
    "r_bg": (0.20, 0.25, 0.30, 0.35, 0.40),
    "prob": (0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    "alpha": (0.3, 0.4, 0.5, 0.6, 0.7),
    "gamma": (0.5, 0.6, 0.7, 0.8, 0.9),
    "lam": (3.0, 3.5, 4.0, 4.5, 5.0),
}


@dataclass(frozen=True)
class ParameterSweepRow:
    """One row of Table 5: a parameter value, its TTI, and the Q-matrix sum."""

    parameter: str
    value: float
    tti: float
    qmatrix: Tuple[float, float, float, float]

    @property
    def qmatrix_total(self) -> float:
        return sum(self.qmatrix)


def _config_with(parameter: str, value: float, base: DotilConfig) -> DotilConfig:
    mapping = {"r_bg": "r_bg", "prob": "prob", "alpha": "alpha", "gamma": "gamma", "lam": "lam"}
    return base.with_overrides(**{mapping[parameter]: value})


def run_parameter_sweep(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    parameters: Sequence[str] | None = None,
    base_config: DotilConfig = DEFAULT_CONFIG,
    workload_fraction: float = 0.5,
    batch_count: int = 5,
) -> List[ParameterSweepRow]:
    """Sweep each parameter on half of the random YAGO workload (Table 5)."""
    dataset = generate_yago(settings.yago_triples, seed=settings.seed)
    workload = yago_workload(dataset, seed=settings.seed + 1)
    queries = workload.subset(workload_fraction, order="random", seed=settings.seed)
    batches = split_batches(queries, batch_count)

    rows: List[ParameterSweepRow] = []
    for parameter in parameters or PARAMETER_GRID:
        for value in PARAMETER_GRID[parameter]:
            config = _config_with(parameter, value, base_config)
            variant = RDBGDB(config=config).load(dataset.triples)
            result = run_workload(variant, batches, label=f"table5-{parameter}-{value}")
            rows.append(
                ParameterSweepRow(
                    parameter=parameter,
                    value=value,
                    tti=result.total_tti,
                    qmatrix=variant.qmatrix_sum(),
                )
            )
    return rows


def format_parameter_sweep(rows: List[ParameterSweepRow]) -> str:
    """Render the sweep in the layout of the paper's Table 5."""
    lines = ["Table 5 — parameter tuning (TTI seconds, summed Q-matrix)"]
    current = None
    for row in rows:
        if row.parameter != current:
            current = row.parameter
            lines.append(f"-- {current}")
        q = ", ".join(f"{v:.4f}" for v in row.qmatrix)
        lines.append(f"   {row.value:<6g} TTI {row.tti:8.3f}   Q-matrix [{q}]")
    return "\n".join(lines)


def best_value(rows: List[ParameterSweepRow], parameter: str) -> float:
    """The parameter value with the lowest TTI (ties broken by Q-matrix sum)."""
    candidates = [row for row in rows if row.parameter == parameter]
    if not candidates:
        raise KeyError(f"no sweep rows for parameter {parameter!r}")
    return min(candidates, key=lambda row: (row.tti, -row.qmatrix_total)).value

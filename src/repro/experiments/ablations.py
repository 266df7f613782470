"""Ablation studies of the design choices DESIGN.md calls out.

Not part of the paper's tables — these quantify the knobs the paper
leaves unspecified and the design decisions our reproduction makes:

* **TH_cost sweep** — the initial correlation threshold of the ALLOCATE
  phase;
* **alpha sweep** — the threshold degeneration factor;
* **predictor ablation** — last-value (the paper's) vs moving-average,
  EWMA and max-over-history;
* **metric ablation** — the Eqn-1 cost against a Pearson-derived cost in
  the same allocator, quantifying the paper's claim that its metric
  captures what matters at the peaks.
"""

from __future__ import annotations

from functools import partial
from collections.abc import Mapping

import numpy as np

from repro.analysis.reporting import ascii_table
from repro.core.allocation import AllocationConfig
from repro.core.correlation import pearson_cost_matrix
from repro.core.vf_control import correlation_aware_frequency
from repro.experiments.base import ExperimentResult
from repro.experiments.setup2 import Setup2Config, build_fine_traces
from repro.infrastructure.dvfs import FrequencyLadder
from repro.prediction.predictors import (
    EwmaPredictor,
    LastValuePredictor,
    MaxOverHistoryPredictor,
    MovingAveragePredictor,
)
from repro.sim.approaches import ApproachDecision, ProposedApproach
from repro.sim.engine import ReplayConfig
from repro.sim.runner import Scenario, run_scenarios
from repro.traces.trace import TraceSet

__all__ = ["run", "pearson_cost_adapter", "pearson_dense_costs"]


def pearson_dense_costs(window: TraceSet) -> np.ndarray:
    """Dense Pearson-derived cost matrix on the Eqn-1 scale.

    Maps the coefficient ``rho`` in [-1, 1] onto the cost scale [1, 2]
    with ``cost = 1.5 - rho / 2`` — rank-preserving (low correlation =
    high cost), the only property the allocator's comparisons rely on.
    """
    return 1.5 - pearson_cost_matrix(window) / 2.0


def pearson_cost_adapter(
    window: TraceSet,
    dense: np.ndarray | None = None,
    name_index: Mapping[str, int] | None = None,
):
    """A scalar cost function derived from Pearson's correlation.

    Same mapping as :func:`pearson_dense_costs`, exposed as a
    string-keyed ``cost_fn`` for the Eqn-4 frequency controller (the
    allocator takes the dense matrix itself).
    Pass a precomputed ``dense`` matrix and/or ``name_index`` to avoid
    recomputing them.  Section IV-A's argument is about
    computation/memory cost and peak-sensitivity, and this adapter lets
    us measure the latter.
    """
    matrix = pearson_dense_costs(window) if dense is None else dense
    index = (
        {name: i for i, name in enumerate(window.names)}
        if name_index is None
        else name_index
    )

    def cost(a: str, b: str) -> float:
        return float(matrix[index[a], index[b]])

    return cost


class PearsonProposedApproach(ProposedApproach):
    """The proposed allocator with Pearson correlation as the pair cost.

    Runs the manager's UPDATE phase and allocator unchanged; only the
    pair costs (and hence the Eqn-4 discount) come from Pearson's
    coefficient of the latest window.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.name = "Proposed (Pearson)"
        self._ladder = FrequencyLadder(self.manager.config.freq_levels_ghz)

    def decide(self, window: TraceSet) -> ApproachDecision:
        manager = self.manager
        n_cores = manager.config.n_cores
        manager.observe(window)
        predicted = manager.predict(window.names)
        dense = pearson_dense_costs(window)
        name_index = {name: i for i, name in enumerate(window.names)}
        cost_fn = pearson_cost_adapter(window, dense, name_index)
        placement = manager.allocator.allocate(
            list(window.names),
            predicted,
            n_cores,
            manager.config.max_servers,
            cost_array=dense,
            name_index=name_index,
        )
        frequencies = {
            server: correlation_aware_frequency(
                list(members), predicted, cost_fn, self._ladder, n_cores
            )
            for server, members in placement.by_server().items()
        }
        return ApproachDecision(placement, frequencies, predicted)


def _proposed_scenario(
    fine: TraceSet,
    config: Setup2Config,
    scenario_name: str,
    allocation: AllocationConfig | None = None,
    predictor=None,
    approach_cls=ProposedApproach,
    name: str | None = None,
) -> Scenario:
    return Scenario(
        name=scenario_name,
        approach_factory=partial(
            approach_cls,
            config.spec.n_cores,
            config.spec.freq_levels_ghz,
            max_servers=config.num_servers,
            allocation=allocation or config.allocation,
            predictor=predictor,
            default_reference=config.traces.vm_core_cap,
        ),
        spec=config.spec,
        num_servers=config.num_servers,
        replay=ReplayConfig(tperiod_s=config.tperiod_s),
        traces=fine,
        trace_builder=partial(build_fine_traces, config),
        approach_name=name,
        seed=config.traces.seed,
    )


#: The swept knob values.
TH_VALUES = (1.0, 1.05, 1.10, 1.20, 1.40)
ALPHA_VALUES = (0.5, 0.7, 0.9, 0.99)


def run(fast: bool = False, workers: int | None = None) -> ExperimentResult:
    """Run all four ablations on one shared trace population.

    Every swept setting is an independent scenario; the whole study is
    one batch that ``workers`` can fan over a process pool.
    """
    config = Setup2Config()
    if fast:
        config = config.fast_variant()
    fine = build_fine_traces(config)

    default = config.traces.vm_core_cap
    predictors = {
        "last-value": LastValuePredictor(default),
        "moving-average(3)": MovingAveragePredictor(3, default),
        "ewma(0.5)": EwmaPredictor(0.5, default),
        "max-over-history(3)": MaxOverHistoryPredictor(3, default),
    }

    scenarios = (
        [
            _proposed_scenario(
                fine,
                config,
                scenario_name=f"th:{th}",
                allocation=AllocationConfig(th_cost=th),
                name=f"TH={th}",
            )
            for th in TH_VALUES
        ]
        + [
            _proposed_scenario(
                fine,
                config,
                scenario_name=f"alpha:{alpha}",
                allocation=AllocationConfig(alpha=alpha),
                name=f"alpha={alpha}",
            )
            for alpha in ALPHA_VALUES
        ]
        + [
            _proposed_scenario(fine, config, scenario_name=f"predictor:{label}",
                               predictor=predictor, name=label)
            for label, predictor in predictors.items()
        ]
        + [
            _proposed_scenario(fine, config, scenario_name="metric:eqn1"),
            _proposed_scenario(
                fine, config, scenario_name="metric:pearson",
                approach_cls=PearsonProposedApproach,
            ),
        ]
    )
    swept = dict(
        zip(
            [s.name for s in scenarios],
            run_scenarios(scenarios, workers=workers),
            strict=True,
        )
    )

    # --- TH_cost sweep --------------------------------------------------
    th_rows = []
    th_data = {}
    for th in TH_VALUES:
        result = swept[f"th:{th}"]
        th_rows.append((f"{th:.2f}", result.avg_power_w, result.max_violation_pct))
        th_data[th] = result

    # --- alpha sweep ------------------------------------------------------
    alpha_rows = []
    alpha_data = {}
    for alpha in ALPHA_VALUES:
        result = swept[f"alpha:{alpha}"]
        alpha_rows.append((f"{alpha:.2f}", result.avg_power_w, result.max_violation_pct))
        alpha_data[alpha] = result

    # --- predictor ablation ----------------------------------------------
    predictor_rows = []
    predictor_data = {}
    for label in predictors:
        result = swept[f"predictor:{label}"]
        predictor_rows.append((label, result.avg_power_w, result.max_violation_pct))
        predictor_data[label] = result

    # --- metric ablation ----------------------------------------------------
    native = swept["metric:eqn1"]
    pearson = swept["metric:pearson"]
    metric_rows = [
        ("Eqn-1 cost", native.avg_power_w, native.max_violation_pct),
        ("Pearson-derived cost", pearson.avg_power_w, pearson.max_violation_pct),
    ]

    headers = ["setting", "avg power (W)", "max violations (%)"]
    sections = {
        "th_cost": ascii_table(headers, th_rows, title="Initial threshold TH_cost"),
        "alpha": ascii_table(headers, alpha_rows, title="Degeneration factor alpha"),
        "predictor": ascii_table(headers, predictor_rows, title="Workload predictor"),
        "metric": ascii_table(headers, metric_rows, title="Correlation metric"),
    }
    data = {
        "th_results": th_data,
        "alpha_results": alpha_data,
        "predictor_results": predictor_data,
        "native_metric": native,
        "pearson_metric": pearson,
    }
    return ExperimentResult(
        experiment_id="ablations",
        title="Design-choice ablations (threshold, alpha, predictor, metric)",
        sections=sections,
        data=data,
    )

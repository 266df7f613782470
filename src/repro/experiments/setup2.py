"""Shared Setup-2 pipeline: datacenter traces through the replay engine.

The paper's Section V-B methodology: top-40 VMs of a production
datacenter, 5-minute samples over 24 hours, refined to 5-second samples
with a lognormal generator; a virtual fleet of twenty 8-core Xeon E5410
servers (2.0 / 2.3 GHz); placement every hour with a last-value
predictor; static and dynamic v/f variants.  Everything behind Table II
and Fig 6 runs through :func:`run_setup2`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from repro.baselines.pcp import PcpConfig
from repro.core.allocation import AllocationConfig
from repro.core.sharding import ShardingConfig
from repro.infrastructure.server import XEON_E5410, ServerSpec
from repro.sim.approaches import BfdApproach, PcpApproach, ProposedApproach
from repro.sim.engine import ReplayConfig
from repro.sim.faults import FaultConfig
from repro.sim.results import ReplayResult
from repro.sim.runner import Scenario, run_scenarios
from repro.traces.datacenter import DatacenterTraceConfig, generate_datacenter_traces
from repro.traces.synthesis import refine_trace_set
from repro.traces.trace import TraceSet

__all__ = [
    "Setup2Config",
    "Setup2Outcome",
    "build_fine_traces",
    "run_setup2",
    "setup2_scenarios",
]


@dataclass(frozen=True)
class Setup2Config:
    """Full parameterisation of the Setup-2 evaluation.

    ``stream_layout`` selects the synthesis RNG stream version (see
    :mod:`repro.traces.synthesis`): ``"v2"`` (the default) refines the
    population in one batched draw; ``"v1"`` reproduces the byte-exact
    populations of releases that predate the versioned layout.

    The coarse generator's layout rides on ``traces.profile_layout``
    (see :mod:`repro.traces.datacenter`): the default ``"v1"`` keeps the
    paper-scale Setup-2 population byte-identical across releases, and
    :meth:`fast_variant` preserves whichever layout the base config
    carries.  Large-N sweeps should set ``profile_layout="v2"`` on their
    trace config — the batched generator is several times faster at
    fleet scale (gated by ``datacenter_traces`` in
    ``benchmarks/bench_scaling.py``).

    ``horizon_mode`` selects the rolling-horizon cost path of the
    proposed approach (see
    :class:`~repro.core.correlation.RollingCostHorizon`).  The default
    ``"p2"`` folds per-window quantile marker states whenever a
    percentile reference is in play (the QoS sweep); the paper's own
    peak-reference runs are unaffected — peaks fold bit-exactly in
    either mode.  Pass ``"exact"`` to force the full percentile horizon
    rebuild.

    ``faults`` optionally injects a seeded failure schedule (see
    :mod:`repro.sim.faults`) into every replay built from this config;
    ``None`` (the default) keeps the replays on the byte-identical
    fault-free path.

    ``allocator`` selects the proposed approach's allocation backend:
    ``"exact"`` (the default dense Fig-2 allocator) or ``"sharded"``
    (the approximate-but-gated two-level tier of
    :mod:`repro.core.sharding`, tuned by ``sharding``).  The baselines
    are unaffected either way.
    """

    traces: DatacenterTraceConfig = field(default_factory=DatacenterTraceConfig)
    spec: ServerSpec = XEON_E5410
    num_servers: int = 20
    fine_period_s: float = 5.0
    synthesis_sigma: float = 0.04
    stream_layout: str = "v2"
    tperiod_s: float = 3600.0
    dvfs_interval_samples: int = 12
    allocation: AllocationConfig = field(default_factory=AllocationConfig)
    pcp: PcpConfig = field(default_factory=PcpConfig)
    horizon_mode: str = "p2"
    faults: FaultConfig | None = None
    allocator: str = "exact"
    sharding: ShardingConfig | None = None

    def fast_variant(self) -> Setup2Config:
        """A shrunk configuration for smoke tests (6 hours, 16 VMs).

        Every trace-generator knob other than the population size and
        horizon — seed, profile layout, burst/noise shape — is inherited
        from the base config via :func:`dataclasses.replace`.
        """
        traces = replace(
            self.traces,
            num_vms=16,
            num_clusters=4,
            duration_s=6 * 3600.0,
        )
        return Setup2Config(
            traces=traces,
            spec=self.spec,
            num_servers=10,
            fine_period_s=self.fine_period_s,
            synthesis_sigma=self.synthesis_sigma,
            stream_layout=self.stream_layout,
            tperiod_s=self.tperiod_s,
            dvfs_interval_samples=self.dvfs_interval_samples,
            allocation=self.allocation,
            pcp=self.pcp,
            horizon_mode=self.horizon_mode,
            faults=self.faults,
            allocator=self.allocator,
            sharding=self.sharding,
        )


@dataclass(frozen=True)
class Setup2Outcome:
    """Replay results of the three approaches on one trace population."""

    fine_traces: TraceSet
    results: tuple[ReplayResult, ...]

    def result(self, approach_name: str) -> ReplayResult:
        """Look one approach's result up by display name."""
        for result in self.results:
            if result.approach_name == approach_name:
                return result
        raise KeyError(f"no result named {approach_name!r}")


def build_fine_traces(config: Setup2Config) -> TraceSet:
    """Generate the coarse population and refine it to fine samples."""
    coarse, _membership = generate_datacenter_traces(config.traces)
    rng = np.random.default_rng(config.traces.seed + 1)
    return refine_trace_set(
        coarse,
        config.fine_period_s,
        sigma=config.synthesis_sigma,
        rng=rng,
        cap=config.traces.vm_core_cap,
        stream_layout=config.stream_layout,
    )


def setup2_scenarios(
    config: Setup2Config,
    dvfs_mode: str,
    fine_traces: TraceSet,
    name_prefix: str = "",
    oracle: bool = False,
) -> list[Scenario]:
    """The three compared approaches as one declarative scenario batch.

    The factories are ``functools.partial`` applications of the approach
    classes over the (frozen, picklable) configuration, so the batch can
    be executed in-process or fanned across a worker pool unchanged.
    Each scenario also carries ``build_fine_traces(config)`` as its trace
    builder, so pool workers regenerate the (seeded, deterministic)
    population instead of receiving the pinned matrix over a pipe.
    """
    replay_config = ReplayConfig(
        tperiod_s=config.tperiod_s,
        dvfs_mode=dvfs_mode,
        dvfs_interval_samples=config.dvfs_interval_samples,
        oracle=oracle,
        faults=config.faults,
    )
    n_cores = config.spec.n_cores
    levels = config.spec.freq_levels_ghz
    default_ref = config.traces.vm_core_cap
    factories = {
        "BFD": partial(
            BfdApproach,
            n_cores,
            levels,
            max_servers=config.num_servers,
            default_reference=default_ref,
        ),
        "PCP": partial(
            PcpApproach,
            n_cores,
            levels,
            max_servers=config.num_servers,
            pcp=config.pcp,
            default_reference=default_ref,
        ),
        "Proposed": partial(
            ProposedApproach,
            n_cores,
            levels,
            max_servers=config.num_servers,
            allocation=config.allocation,
            default_reference=default_ref,
            horizon_mode=config.horizon_mode,
            allocator=config.allocator,
            sharding=config.sharding,
        ),
    }
    return [
        Scenario(
            name=f"{name_prefix}{label}",
            approach_factory=factory,
            spec=config.spec,
            num_servers=config.num_servers,
            replay=replay_config,
            traces=fine_traces,
            trace_builder=partial(build_fine_traces, config),
            seed=config.traces.seed,
        )
        for label, factory in factories.items()
    ]


def run_setup2(
    config: Setup2Config | None = None,
    dvfs_mode: str = "static",
    fine_traces: TraceSet | None = None,
    workers: int | None = None,
) -> Setup2Outcome:
    """Replay BFD, PCP and the proposed scheme on one population.

    ``fine_traces`` may be passed in to share one refined population
    across the static and dynamic variants (as the paper does).
    ``workers`` fans the three replays over a process pool (see
    :func:`repro.sim.runner.run_scenarios`).
    """
    config = config or Setup2Config()
    if fine_traces is None:
        fine_traces = build_fine_traces(config)
    scenarios = setup2_scenarios(config, dvfs_mode, fine_traces)
    results = tuple(run_scenarios(scenarios, workers=workers))
    return Setup2Outcome(fine_traces=fine_traces, results=results)

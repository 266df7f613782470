"""The benchmark's four workloads, driven through the public library API.

Each workload is a fixed unit of work (a *pass*) built from an input
seed: :meth:`setup` does everything before the timed section,
:meth:`run` executes the timed section and returns a :class:`PassOutcome`
holding one wall-clock sample per *operation* (a placement period or an
experiment) plus the outputs that :func:`check` compares against the
committed references.  The workloads and the reason each exists are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.manager import ManagerConfig, PowerManager
from repro.core.sharding import ShardingConfig
from repro.experiments import EXPERIMENTS
from repro.experiments import setup2
from repro.infrastructure.server import XEON_E5410
from repro.sim import engine
from repro.sim.approaches import ProposedApproach
from repro.sim.checkpoint import CheckpointPolicy, list_checkpoints
from repro.sim.churn import ChurnEngine, synthesize_churn_events
from repro.traces import datacenter, synthesis
from repro.traces.datacenter import DatacenterTraceConfig
from repro.traces.trace import ReferenceSpec

#: ``--seed n`` generates its inputs from seed ``n % INPUT_SEEDS``; the
#: references hold the expected outputs of every one of these seeds.
INPUT_SEEDS = 16

SERVE_VMS = 10_000
SERVE_CLUSTERS = 64
SERVE_SAMPLES_PER_PERIOD = 12
SERVE_EVENTS_PER_PERIOD = 32
SERVE_WARM_PERIODS = 6
SERVE_CHECKPOINT_EVERY = 3

REPLAY_VMS = 1000
REPLAY_CLUSTERS = 8              # the Setup-2 service mix, at fleet scale
REPLAY_SERVERS = 500             # Setup-2's 2 VMs per server
REPLAY_PERIOD_S = 1200.0         # 20-minute periods of 5 s samples
REPLAY_HORIZON = 3


@dataclass
class PassOutcome:
    """What one timed pass produced."""

    timed_s: float
    op_ms: list[float]
    #: Per-operation outputs, in operation order (checked one by one).
    ops: list
    #: Whole-pass outputs (checked together; a mismatch fails every op).
    totals: dict
    #: Operations known to have failed regardless of the references
    #: (audit findings), by index into ``ops``.
    flagged: set[int] = field(default_factory=set)
    servers_mean: float = 0.0
    energy_proxy_ghz: float = 0.0
    info: dict = field(default_factory=dict)


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _newest_checkpoint_bytes(directory: Path) -> int:
    found = list_checkpoints(directory)
    return found[-1].stat().st_size if found else 0


def _mean_frequency_sum(result) -> float:
    """Active servers' summed frequency, averaged over a replay's samples."""
    ghz_samples = sum(freq * count for freq, count in result.residency.merged().items())
    return ghz_samples / (result.samples_per_period * result.num_periods)


class ServeChurn:
    """Warm churn/serve ``decide`` at N=10k through the sharded manager."""

    seeded = True
    imports = "repro.core.manager, repro.sim.churn, repro.traces.datacenter"

    def __init__(self, input_seed: int, workdir: Path) -> None:
        self.seed = input_seed
        self.ckpt_dir = workdir / "serve_churn_ckpt"
        self.tracer = None

    def setup(self) -> ChurnEngine:
        # The pool is the same fleet for every seed; the seed drives the
        # churn stream, so runs on different seeds do comparable work.
        traces, _membership = datacenter.generate_datacenter_traces(
            DatacenterTraceConfig(
                num_vms=SERVE_VMS, num_clusters=SERVE_CLUSTERS, profile_layout="v2"
            )
        )
        events = synthesize_churn_events(
            traces.names,
            1 + SERVE_WARM_PERIODS,
            SERVE_SAMPLES_PER_PERIOD * traces.period_s,
            events_per_period=SERVE_EVENTS_PER_PERIOD,
            seed=self.seed,
        )
        manager = PowerManager(
            ManagerConfig(
                n_cores=XEON_E5410.n_cores,
                freq_levels_ghz=XEON_E5410.freq_levels_ghz,
                allocator="sharded",
                sharding=ShardingConfig(),
            )
        )
        churn = ChurnEngine(
            manager,
            traces,
            events,
            samples_per_period=SERVE_SAMPLES_PER_PERIOD,
            checkpoint=CheckpointPolicy(
                path=_fresh_dir(self.ckpt_dir), every_periods=SERVE_CHECKPOINT_EVERY
            ),
        )
        # The cold first period admits the initial half of the pool and
        # builds every shard from scratch; it counts as set-up so that
        # work moved out of warm periods into it still shows.
        self._op(0)
        churn.run(1)
        return churn

    def _op(self, op: int) -> None:
        if self.tracer is not None:
            self.tracer.op = op

    def run(self, churn: ChurnEngine) -> PassOutcome:
        op_ms = []
        clock = time.perf_counter
        start = clock()
        for period in range(1, 1 + SERVE_WARM_PERIODS):
            self._op(period)
            began = clock()
            churn.run(period + 1)
            op_ms.append((clock() - began) * 1e3)
        timed_s = clock() - start
        records = churn.records
        warm_events = sum(r.arrivals + r.departures for r in records[1:])
        return PassOutcome(
            timed_s=timed_s,
            op_ms=op_ms,
            ops=[[r.servers, r.energy_proxy_ghz] for r in records],
            totals={},
            servers_mean=statistics.fmean(r.servers for r in records),
            energy_proxy_ghz=statistics.fmean(r.energy_proxy_ghz for r in records),
            info={
                "events_per_s": warm_events / timed_s,
                "periods_per_s": SERVE_WARM_PERIODS / timed_s,
                "active_vms_mean": statistics.fmean(r.active_vms for r in records),
                "ckpt_bytes": _newest_checkpoint_bytes(self.ckpt_dir),
            },
        )


class Replay:
    """``engine.replay`` of the Proposed approach on a 1000-VM Setup-2 fleet."""

    seeded = True
    imports = "repro.experiments.setup2, repro.sim.engine, repro.sim.approaches"

    def __init__(
        self,
        name: str,
        percentile: float,
        horizon_mode: str,
        periods: int,
        checkpoint_every: int,
        input_seed: int,
        workdir: Path,
    ) -> None:
        self.name = name
        self.percentile = percentile
        self.horizon_mode = horizon_mode
        self.periods = periods
        self.checkpoint_every = checkpoint_every
        self.seed = input_seed
        self.ckpt_dir = workdir / f"{name}_ckpt"
        self.tracer = None

    def setup(self):
        config = setup2.Setup2Config(
            traces=DatacenterTraceConfig(
                num_vms=REPLAY_VMS,
                num_clusters=REPLAY_CLUSTERS,
                duration_s=self.periods * REPLAY_PERIOD_S,
                profile_layout="v2",
            ),
            num_servers=REPLAY_SERVERS,
            tperiod_s=REPLAY_PERIOD_S,
        )
        # ``setup2.build_fine_traces`` with the refinement stream drawn
        # from the workload seed: the coarse service mix is the same
        # fleet for every seed, the fine-grained demand is not.
        coarse, _membership = datacenter.generate_datacenter_traces(config.traces)
        fine = synthesis.refine_trace_set(
            coarse,
            config.fine_period_s,
            sigma=config.synthesis_sigma,
            rng=np.random.default_rng(self.seed),
            cap=config.traces.vm_core_cap,
            stream_layout=config.stream_layout,
        )
        approach = ProposedApproach(
            XEON_E5410.n_cores,
            XEON_E5410.freq_levels_ghz,
            max_servers=REPLAY_SERVERS,
            reference=ReferenceSpec(self.percentile),
            default_reference=config.traces.vm_core_cap,
            horizon_periods=REPLAY_HORIZON,
            horizon_mode=self.horizon_mode,
        )
        replay_config = engine.ReplayConfig(
            tperiod_s=REPLAY_PERIOD_S,
            dvfs_mode="dynamic",
            dvfs_interval_samples=config.dvfs_interval_samples,
            checkpoint=CheckpointPolicy(
                path=_fresh_dir(self.ckpt_dir),
                every_periods=self.checkpoint_every,
                audit=True,
                on_violation="warn",
            ),
        )
        return fine, approach, replay_config

    def run(self, state) -> PassOutcome:
        fine, approach, replay_config = state
        clock = time.perf_counter
        stamps: list[float] = []
        decide = approach.decide

        # One clock read per period (at each placement decision) turns
        # the single replay call into per-period wall-clock samples.
        def stamped_decide(window):
            stamps.append(clock())
            if self.tracer is not None:
                self.tracer.op = len(stamps)
            return decide(window)

        approach.decide = stamped_decide
        start = clock()
        try:
            # Looked up on the module at call time, so the traced run's
            # wrapper on ``repro.sim.engine.replay`` sees this call.
            result = engine.replay(fine, XEON_E5410, REPLAY_SERVERS, approach, replay_config)
        finally:
            del approach.decide
        end = clock()
        bounds = [*stamps, end]
        totals = {
            "energy_kwh": result.energy_j / 3.6e6,
            "violation_mean_pct": result.mean_violation_pct,
            "servers_mean": result.mean_active_servers,
        }
        return PassOutcome(
            timed_s=end - start,
            op_ms=[(b - a) * 1e3 for a, b in zip(bounds, bounds[1:])],
            ops=[
                [placement.num_active_servers, float(row.mean())]
                for placement, row in zip(
                    result.placements, result.violation_ratio, strict=True
                )
            ],
            totals=totals,
            flagged={event.period - 1 for event in result.audit_events},
            servers_mean=result.mean_active_servers,
            energy_proxy_ghz=_mean_frequency_sum(result),
            info={
                **totals,
                "periods_per_s": result.num_periods / (end - start),
                "audit_findings": len(result.audit_events),
                "ckpt_bytes": _newest_checkpoint_bytes(self.ckpt_dir),
            },
        )


class PaperFast:
    """Every registered experiment with ``fast=True`` (``run all --fast``)."""

    seeded = False
    imports = "repro.experiments"

    def __init__(self, input_seed: int, workdir: Path) -> None:
        # The experiments pin their own seeds: this is the path users
        # run, so the workload seed does not reach it.
        self.seed = input_seed
        self.tracer = None

    def setup(self) -> None:
        return None

    def run(self, _state) -> PassOutcome:
        clock = time.perf_counter
        op_ms = []
        digests = []
        table2 = None
        start = clock()
        for experiment_id in sorted(EXPERIMENTS):
            if self.tracer is not None:
                self.tracer.op = experiment_id
            began = clock()
            result = EXPERIMENTS[experiment_id](fast=True)
            text = result.render()
            op_ms.append((clock() - began) * 1e3)
            digests.append([experiment_id, hashlib.sha256(text.encode()).hexdigest()])
            if experiment_id == "table2":
                table2 = result
        timed_s = clock() - start
        # Quality: the paper's own Table II(b) row for the Proposed scheme.
        proposed = table2.data["dynamic_outcome"].result("Proposed")
        return PassOutcome(
            timed_s=timed_s,
            op_ms=op_ms,
            ops=digests,
            totals={},
            servers_mean=proposed.mean_active_servers,
            energy_proxy_ghz=_mean_frequency_sum(proposed),
            info={
                "energy_kwh": proposed.energy_j / 3.6e6,
                "violation_mean_pct": proposed.mean_violation_pct,
            },
        )


def make_workload(name: str, input_seed: int, workdir: Path):
    """Build the named workload for one input seed."""
    if name == "serve_churn":
        return ServeChurn(input_seed, workdir)
    if name == "replay_peak":
        return Replay(name, 100.0, "exact", 7, 3, input_seed, workdir)
    if name == "replay_p90":
        return Replay(name, 90.0, "p2", 6, 2, input_seed, workdir)
    if name == "paper_fast":
        return PaperFast(input_seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


def _same(expected, actual, rel: float = 1e-9) -> bool:
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(expected) == len(actual)
            and all(_same(e, a, rel) for e, a in zip(expected, actual))
        )
    if isinstance(expected, float) or isinstance(actual, float):
        return abs(expected - actual) <= rel * max(abs(expected), abs(actual), 1e-300)
    return expected == actual


def check(outcome: PassOutcome, reference: dict) -> int:
    """Number of failed operations of one pass against its reference."""
    expected_ops = reference["ops"]
    if len(outcome.ops) != len(expected_ops) or not all(
        _same(value, outcome.totals.get(key)) for key, value in reference["totals"].items()
    ):
        return max(len(outcome.ops), len(expected_ops))
    return sum(
        1
        for index, (expected, actual) in enumerate(zip(expected_ops, outcome.ops))
        if index in outcome.flagged or not _same(expected, actual)
    )


def reference_key(workload) -> str:
    """Key of a workload's entry in the references file."""
    return str(workload.seed) if workload.seeded else "any"


def reference_of(outcome: PassOutcome) -> dict:
    """The reference entry a pass's outputs define."""
    return {"ops": outcome.ops, "totals": outcome.totals}


#: Traced layers by span name; README.md maps each one to what it wraps
#: and to the end-to-end metric it should move, on which workload.
LAYERS = (
    "traces.build",
    "manager.membership",
    "manager.predict",
    "sharding.plan",
    "correlation.cost_build",
    "correlation.horizon_push",
    "allocation.sweep",
    "vf_control.eqn4",
    "engine.accounting",
    "runner.replay",
    "checkpoint.write",
    "audit.check",
    "queueing.sim",
    "dispatch.sim",
)


def _count_pair_samples(counts, args, _kwargs, _result) -> None:
    rows, samples = args[1].matrix.shape
    counts["correlation.pair_samples"] += rows * rows * samples


def _count_shards(counts, args, _kwargs, _result) -> None:
    counts["sharding.shards"] += args[0].last_num_shards


def _count_checkpoint_bytes(counts, _args, _kwargs, result) -> None:
    counts["checkpoint.write_bytes"] += Path(result).stat().st_size


def _count_findings(counts, _args, _kwargs, result) -> None:
    counts["audit.findings"] += len(result)


def instrument(tracer) -> None:
    """Wrap every traced layer's public entry points, at the caller's binding."""
    from repro.core.allocation import CorrelationAwareAllocator
    from repro.core.correlation import CostMatrix, RollingCostHorizon
    from repro.core.sharding import ShardedAllocator
    from repro.workloads.dispatch import RequestDispatchSimulator
    from repro.workloads.queueing import ForkJoinQueueingSimulator

    tracer.patch_function("repro.traces.datacenter", "generate_datacenter_traces", "traces.build")
    tracer.patch_function("repro.traces.synthesis", "refine_trace_set", "traces.build")
    for method in ("admit", "retire"):
        tracer.patch_method(PowerManager, method, "manager.membership")
    for method in ("observe", "predict"):
        tracer.patch_method(PowerManager, method, "manager.predict")
    tracer.patch_method(ShardedAllocator, "allocate", "sharding.plan", _count_shards)
    tracer.patch_method(
        CostMatrix, "from_traces", "correlation.cost_build", _count_pair_samples
    )
    tracer.patch_method(RollingCostHorizon, "push", "correlation.horizon_push")
    tracer.patch_method(CorrelationAwareAllocator, "allocate", "allocation.sweep")
    tracer.patch_function(
        "repro.core.vf_control", "correlation_aware_frequency", "vf_control.eqn4"
    )
    # One function, two callers: replays the benchmark starts itself are
    # the engine's accounting loop; replays inside experiments go
    # through the scenario runner's own binding.
    tracer.patch_binding("repro.sim.engine", "replay", "engine.accounting")
    tracer.patch_binding("repro.sim.runner", "replay", "runner.replay")
    tracer.patch_function(
        "repro.sim.checkpoint", "save_checkpoint", "checkpoint.write", _count_checkpoint_bytes
    )
    tracer.patch_function(
        "repro.sim.audit", "audit_replay_state", "audit.check", _count_findings
    )
    tracer.patch_method(ForkJoinQueueingSimulator, "run", "queueing.sim")
    tracer.patch_method(RequestDispatchSimulator, "run", "dispatch.sim")


def layer_metrics(tracer, pass_ms: float) -> dict:
    """Per-layer metrics of one traced pass, closing to ``pass_ms``.

    Every ``*_ms`` metric is a self time; together with ``other_ms``
    they sum to the traced pass's wall time.
    """
    self_ms = tracer.self_ms()
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}_ms"] = {"value": self_ms.get(layer, 0.0), "unit": "ms"}
        metrics[f"{layer}_calls"] = {
            "value": tracer.counts.get(f"{layer}_calls", 0.0),
            "unit": "count",
        }
    for counter in (
        "sharding.shards",
        "correlation.pair_samples",
        "checkpoint.write_bytes",
        "audit.findings",
    ):
        unit = "bytes" if counter.endswith("bytes") else "count"
        metrics[counter] = {"value": tracer.counts.get(counter, 0.0), "unit": unit}
    # Uptime drift: observe+predict self time of the first and the last
    # warm serve period, side by side rather than averaged together.
    by_period = tracer.self_ms_by_op("manager.predict")
    metrics["manager.predict.first_warm_period"] = {
        "value": by_period.get(1, 0.0),
        "unit": "ms",
    }
    metrics["manager.predict.last_warm_period"] = {
        "value": by_period.get(SERVE_WARM_PERIODS, 0.0),
        "unit": "ms",
    }
    metrics["other_ms"] = {"value": pass_ms - tracer.top_level_ms(), "unit": "ms"}
    return metrics

"""Inputs, units and output digests of the repository benchmark.

Every workload is a closed loop in one process: the next unit starts
only after the previous one returned, with no worker processes or
threads.  A unit is one ``TransientSimulator.run`` (``scalar_mix``),
one ``FleetSimulator.run`` batch (``fleet_small``, ``fleet_large``) or
one ``run_transient_campaign`` call (``fault_campaign``).

Inputs come from the workload seed only.  Light levels are drawn per
run or per lane from the small set :data:`LEVELS`, so inputs differ
between seeds while still sharing the MPPT operating-point memo and the
fleet decision caches the way campaign lanes do; a fault campaign's
light level is tied to its base seed (:data:`CAMPAIGN_KEYS`).  Because
the set of distinct unit inputs is finite, every one of them has a
reference digest in ``reference.json`` (see ``run.py --record``), which
makes the correctness gate exact for any seed.

Library entry points are called through their module attributes
(``parallel_cache.characterized_system``, ``dp.solve_plan``,
``faults_campaign.run_transient_campaign``) so the traced run's
wrappers (``tracing.py``) see these calls too.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from repro.core.duty_cycle import DutyCycleController
from repro.core.mppt import DischargeTimeMppTracker, MppTrackingController
from repro.core.operating_point import OperatingPointOptimizer
from repro.core.sprint import SprintController, SprintScheduler
from repro.faults import campaign as faults_campaign
from repro.faults.models import FaultSpec
from repro.fleet.engine import FleetNode, FleetSimulator
from repro.parallel import cache as parallel_cache
from repro.perf.benchmark import results_bit_identical
from repro.planner import dp
from repro.planner.adapter import PlanController, RecedingHorizonController
from repro.planner.forecast import ForecastErrorModel, bin_trace
from repro.processor.workloads import image_frame_workload
from repro.pv.traces import IrradianceTrace, cloud_trace, step_trace
from repro.sim.dvfs import (
    BypassController,
    ConstantSpeedController,
    FixedOperatingPointController,
)
from repro.sim.engine import SimulationConfig, TransientSimulator
from repro.sim.result import SimulationResult
from repro.sim.transitions import DvfsTransitionModel

#: Bright light levels (suns) drawn per run or lane.  A dim step falls
#: to ``DIM_RATIO`` of the drawn level.
LEVELS: Tuple[float, ...] = (1.0, 0.8, 0.6)
DIM_RATIO = 0.3
STEP_S = 10e-6
DURATION_S = 12e-3
DIM_AT_S = 4e-3
#: Passing cloud of the brownout-recovery scenario.
CLOUD_DURATION_S = 20e-3

#: Shared config of every lane that can mix into one fleet batch.
MATRIX = SimulationConfig(time_step_s=STEP_S, stop_on_brownout=False)
STOP_ON_BROWNOUT = SimulationConfig(time_step_s=STEP_S, stop_on_brownout=True)
RECOVERY = SimulationConfig(
    time_step_s=STEP_S,
    stop_on_brownout=False,
    recover_from_brownout=True,
    recovery_voltage_v=1.05,
)

PLANNER_SPEC = dp.PlannerSpec(slot_s=1e-3)
PLANNER_CYCLES = 400_000
PLANNER_DEADLINE_S = 10e-3
SPRINT_FRAME_S = 10e-3

#: The paper scenarios ``scalar_mix`` cycles through, in order.
SCALAR_SCENARIOS: Tuple[str, ...] = (
    "fig6_fixed",
    "fig8_mppt",
    "fig8_transitions",
    "fig9_sprint",
    "duty_cycle",
    "bypass_law",
    "constant_speed",
    "plan",
    "receding",
    "stop_on_brownout",
    "recovery_cloud",
)

#: One scenario per vectorizable fleet family, round-robin in batches.
FLEET_FAMILIES: Tuple[str, ...] = (
    "fig6_fixed",
    "constant_speed",
    "bypass_law",
    "duty_cycle",
    "fig8_mppt",
    "plan",
    "receding",
)
#: The scalar-fallback lane every fleet batch carries (no family tag).
FLEET_FALLBACK = "fig9_sprint"
FLEET_KINDS: Tuple[str, ...] = FLEET_FAMILIES + (FLEET_FALLBACK,)

#: Fault campaigns: 16 runs each (``FLEET_AUTO_MIN_BATCH``, so the
#: default ``engine="auto"`` routes them to the fleet engine).
CAMPAIGN_RUNS = 16
#: ``(base seed, dim level)`` of the campaigns, cycled from a seeded
#: start.  A run holds only about eight campaigns, so each base seed
#: keeps one light level: every run then covers the same campaigns and
#: the same work, whatever the seed.
CAMPAIGN_KEYS: Tuple[Tuple[int, float], ...] = (
    (1, 0.35), (17, 0.5), (33, 0.35), (49, 0.5),
)
#: Short campaigns (about 2 s each on a 2-vCPU VM) so that a run times
#: enough of them for steady medians.
CAMPAIGN_DURATION_S = 10e-3
CAMPAIGN_DIM_AT_S = 4e-3


def digest(text: str) -> str:
    """Short hex digest of an exact textual rendering."""
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def result_digest(result: SimulationResult, final_node_v: float) -> str:
    """Digest of one run or lane: exact ``repr`` of its summary fields
    (floats repr round-trip exactly) and of the final node voltage."""
    return digest(repr(list(result.summary().items())) + repr(final_node_v))


def lane_key(scenario: str, level: float) -> str:
    return f"{scenario}@{level!r}"


def campaign_key(base_seed: int, dim_to: float) -> str:
    return f"campaign{base_seed}@{dim_to!r}"


@dataclass
class Lane:
    """Fresh simulator parts for one run or fleet lane."""

    key: str
    config: SimulationConfig
    trace: IrradianceTrace
    duration_s: float
    parts: Dict[str, Any]

    def simulator(self) -> TransientSimulator:
        parts = dict(self.parts)
        node_capacitor = parts.pop("capacitor")
        return TransientSimulator(
            node_capacitor=node_capacitor, config=self.config, **parts
        )


def _bypass_law(v_node: float) -> float:
    """Voltage-proportional clock of the bypass-law scenario."""
    return v_node * 2e7


class Models:
    """Shared, read-only models and per-level planner tables.

    Built once per set-up: the characterized system and LUT, one
    memoizing MPP tracker shared by every MPPT run and lane, the fixed
    and duty-cycle operating points, the planner action table, and per
    light level the traces, forecasts, oracle plans and sprint plans.
    """

    def __init__(self) -> None:
        system, lut = parallel_cache.characterized_system()
        self.system = system
        self.tracker = DischargeTimeMppTracker(system, "sc", lut=lut)
        optimizer = OperatingPointOptimizer(system)
        self.fixed_point = optimizer.best_point("sc", 1.0)
        self.duty_point = optimizer.best_point("sc", 0.5)
        self.actions, self.grid = dp.build_actions(system, "sc", PLANNER_SPEC)
        initial_j = 0.5 * system.node_capacitance_f * 1.2**2
        frame = image_frame_workload(SPRINT_FRAME_S)
        scheduler = SprintScheduler(system, "buck", sprint_factor=0.2)
        self.frame = frame
        self.step_traces: Dict[float, IrradianceTrace] = {}
        self.cloud_traces: Dict[float, IrradianceTrace] = {}
        self.oracle: Dict[float, dp.Plan] = {}
        self.belief: Dict[float, Any] = {}
        self.sprint_plan: Dict[float, Any] = {}
        self.mpp_v: Dict[float, float] = {}
        for level in LEVELS:
            trace = step_trace(level, DIM_RATIO * level, DIM_AT_S, DURATION_S)
            self.step_traces[level] = trace
            self.cloud_traces[level] = cloud_trace(
                level, 0.01, 2e-3, 5e-3, CLOUD_DURATION_S, edge_s=0.5e-3
            )
            forecast = bin_trace(
                trace, system, PLANNER_SPEC.slot_s, duration_s=DURATION_S
            )
            self.oracle[level] = dp.solve_plan(
                forecast.income_j,
                self.actions,
                self.grid,
                initial_j,
                forecast.slot_s,
            )
            self.belief[level] = ForecastErrorModel(
                bias=-0.1, noise_sigma=0.15, seed=7
            ).apply(forecast)
            self.mpp_v[level] = system.mpp(level).voltage_v
            self.sprint_plan[level] = scheduler.plan(frame, self.mpp_v[level])

    def lane(self, scenario: str, level: float) -> Lane:
        """Fresh parts for ``scenario`` at light ``level``."""
        system = self.system
        config = MATRIX
        trace = self.step_traces[level]
        duration_s = DURATION_S
        parts: Dict[str, Any] = {
            "cell": system.cell,
            "capacitor": system.new_node_capacitor(1.2),
            "processor": system.processor,
            "regulator": system.regulator("sc"),
            "comparators": system.new_comparator_bank(),
        }
        fixed = self.fixed_point
        if scenario in ("fig6_fixed", "stop_on_brownout", "recovery_cloud"):
            parts["controller"] = FixedOperatingPointController(
                fixed.processor_voltage_v, fixed.frequency_hz
            )
            if scenario == "stop_on_brownout":
                config = STOP_ON_BROWNOUT
            elif scenario == "recovery_cloud":
                config = RECOVERY
                trace = self.cloud_traces[level]
                duration_s = CLOUD_DURATION_S
        elif scenario in ("fig8_mppt", "fig8_transitions"):
            parts["capacitor"] = system.new_node_capacitor(self.mpp_v[level])
            parts["controller"] = MppTrackingController(
                self.tracker, initial_irradiance=level
            )
            if scenario == "fig8_transitions":
                parts["transitions"] = DvfsTransitionModel()
        elif scenario == "fig9_sprint":
            parts["capacitor"] = system.new_node_capacitor(self.mpp_v[level])
            parts["regulator"] = system.regulator("buck")
            parts["controller"] = SprintController(
                self.sprint_plan[level],
                allow_bypass=True,
                deadline_s=self.frame.deadline_s,
            )
            parts["workload"] = self.frame
        elif scenario == "duty_cycle":
            parts["controller"] = DutyCycleController(
                self.duty_point, 20_000, 1.1, 0.9
            )
        elif scenario == "bypass_law":
            parts["controller"] = BypassController(_bypass_law)
        elif scenario == "constant_speed":
            parts["controller"] = ConstantSpeedController(
                output_voltage_v=fixed.processor_voltage_v,
                frequency_hz=fixed.frequency_hz,
                total_cycles=250_000,
            )
        elif scenario == "plan":
            parts["controller"] = PlanController(
                self.oracle[level],
                capacitance_f=system.node_capacitance_f,
                total_cycles=PLANNER_CYCLES,
                deadline_s=PLANNER_DEADLINE_S,
            )
        elif scenario == "receding":
            parts["controller"] = RecedingHorizonController(
                self.belief[level],
                self.actions,
                self.grid,
                capacitance_f=system.node_capacitance_f,
                total_cycles=PLANNER_CYCLES,
                deadline_s=PLANNER_DEADLINE_S,
            )
        else:
            raise KeyError(f"unknown scenario {scenario!r}")
        return Lane(lane_key(scenario, level), config, trace, duration_s, parts)


@dataclass(frozen=True)
class UnitOutcome:
    """What one unit produced: per-lane digests keyed by input key."""

    keys: Tuple[str, ...]
    digests: Tuple[str, ...]
    node_steps: int


class Workload:
    """One benchmark workload: set-up, seeded unit inputs, unit runner."""

    name = ""
    why = ""
    unit = ""
    #: Clock of the unit timings; the runner substitutes one that leaves
    #: out the time it spends timing its calibration kernel.
    clock: Callable[[], float] = staticmethod(time.perf_counter)

    def setup(self) -> None:
        """Build models and inputs, then run the untimed warm-up."""
        raise NotImplementedError

    def inputs(self, seed: int) -> Iterator[Any]:
        """The endless seeded stream of unit inputs."""
        raise NotImplementedError

    def run_unit(self, spec: Any) -> "Tuple[float, UnitOutcome]":
        """Run one unit; ``(host seconds of the unit call, outcome)``."""
        raise NotImplementedError

    def reference_inputs(self) -> Iterator[Any]:
        """Unit inputs that cover every key once (``run.py --record``)."""
        raise NotImplementedError

    def probe(self) -> bool:
        """Extra correctness probe run after the timed phase."""
        return True

    def _timed(self, call: Callable[[], Any]) -> "Tuple[float, Any]":
        started = self.clock()
        out = call()
        return self.clock() - started, out


class ScalarMix(Workload):
    name = "scalar_mix"
    unit = "one TransientSimulator.run"
    why = (
        "the scalar step loop (sim, pv, core, regulators, monitor, "
        "storage) does the work; fleet and the optimizer do none after "
        "warm-up"
    )

    def setup(self) -> None:
        self.models = Models()
        # Warm-up: one run per (scenario, level) input fills the MPPT
        # memo for every input the timed phase can draw.
        for spec in self.reference_inputs():
            self.run_unit(spec)

    def inputs(self, seed: int) -> Iterator[Any]:
        rng = random.Random(seed)
        index = seed % len(SCALAR_SCENARIOS)
        while True:
            yield (SCALAR_SCENARIOS[index], rng.choice(LEVELS))
            index = (index + 1) % len(SCALAR_SCENARIOS)

    def run_unit(self, spec: Any) -> "Tuple[float, UnitOutcome]":
        scenario, level = spec
        lane = self.models.lane(scenario, level)
        simulator = lane.simulator()
        seconds, result = self._timed(
            lambda: simulator.run(lane.trace, duration_s=lane.duration_s)
        )
        return seconds, UnitOutcome(
            (lane.key,),
            (result_digest(result, simulator.node_capacitor.voltage_v),),
            len(result.time_s),
        )

    def reference_inputs(self) -> Iterator[Any]:
        for scenario in SCALAR_SCENARIOS:
            for level in LEVELS:
                yield (scenario, level)


class FleetBatches(Workload):
    """Back-to-back fleet batches: vectorizable families round-robin
    plus one sprint scalar-fallback lane per batch."""

    def __init__(self, name: str, lanes: int, why: str) -> None:
        self.name = name
        self.lanes = lanes
        self.why = why
        self.unit = f"one FleetSimulator.run over {lanes} lanes"

    def setup(self) -> None:
        self.models = Models()
        # Warm-up unit: one lane per (kind, level), which fills the
        # MPPT memo and decision caches for every input the timed
        # batches can draw.
        self.run_unit(
            [(kind, level) for kind in FLEET_KINDS for level in LEVELS]
        )

    def inputs(self, seed: int) -> Iterator[Any]:
        rng = random.Random(seed)
        family = seed % len(FLEET_FAMILIES)
        while True:
            batch = []
            for _ in range(self.lanes - 1):
                batch.append((FLEET_FAMILIES[family], rng.choice(LEVELS)))
                family = (family + 1) % len(FLEET_FAMILIES)
            batch.append((FLEET_FALLBACK, rng.choice(LEVELS)))
            yield batch

    def _fleet(self, spec: Sequence[Tuple[str, float]]) -> "Tuple[List[Lane], FleetSimulator]":
        lanes = [self.models.lane(kind, level) for kind, level in spec]
        nodes = [FleetNode(**lane.parts) for lane in lanes]
        return lanes, FleetSimulator(nodes, config=MATRIX)

    def run_unit(self, spec: Any) -> "Tuple[float, UnitOutcome]":
        lanes, simulator = self._fleet(spec)
        traces = [lane.trace for lane in lanes]
        seconds, results = self._timed(
            lambda: simulator.run(traces, duration_s=DURATION_S)
        )
        digests = tuple(
            result_digest(result, node.capacitor.voltage_v)
            for result, node in zip(results, simulator.nodes)
        )
        return seconds, UnitOutcome(
            tuple(lane.key for lane in lanes),
            digests,
            sum(len(result.time_s) for result in results),
        )

    def probe(self) -> bool:
        """One lane per family plus the fallback lane, fleet vs scalar."""
        spec = [(kind, LEVELS[0]) for kind in FLEET_KINDS]
        lanes, simulator = self._fleet(spec)
        fleet_results = simulator.run(
            [lane.trace for lane in lanes], duration_s=DURATION_S
        )
        for (kind, level), fleet_result in zip(spec, fleet_results):
            lane = self.models.lane(kind, level)
            scalar = lane.simulator().run(lane.trace, duration_s=DURATION_S)
            if not results_bit_identical(scalar, fleet_result):
                return False
        return True


class FaultCampaign(Workload):
    name = "fault_campaign"
    unit = f"one run_transient_campaign call of {CAMPAIGN_RUNS} runs"
    why = (
        "every faulted lane has its own system, so the MPPT memo misses "
        "and the holistic optimizer dominates"
    )

    def setup(self) -> None:
        parallel_cache.characterized_system()
        # Warm-up: a one-run campaign (below the fleet crossover, so it
        # takes the scalar path) fills the reference system's caches.
        faults_campaign.run_transient_campaign(
            FaultSpec(), self._config(*CAMPAIGN_KEYS[0], runs=1), workers=1
        )

    @staticmethod
    def _config(
        base_seed: int, dim_to: float, runs: int = CAMPAIGN_RUNS
    ) -> "faults_campaign.CampaignConfig":
        return faults_campaign.CampaignConfig(
            runs=runs,
            base_seed=base_seed,
            duration_s=CAMPAIGN_DURATION_S,
            dim_time_s=CAMPAIGN_DIM_AT_S,
            dim_to=dim_to,
        )

    def inputs(self, seed: int) -> Iterator[Any]:
        index = seed % len(CAMPAIGN_KEYS)
        while True:
            yield CAMPAIGN_KEYS[index]
            index = (index + 1) % len(CAMPAIGN_KEYS)

    def run_unit(self, spec: Any) -> "Tuple[float, UnitOutcome]":
        base_seed, dim_to = spec
        config = self._config(base_seed, dim_to)
        seconds, summary = self._timed(
            lambda: faults_campaign.run_transient_campaign(
                FaultSpec(), config, workers=1
            )
        )
        text = repr(list(summary.as_dict().items())) + repr(summary.quarantined)
        # No run stops early under the campaign's simulation config
        # (stop_on_brownout and stop_on_completion are off), so every
        # faulted run and both fault-free reference runs execute the
        # full step grid.
        steps = math.ceil(config.duration_s / config.time_step_s) + 1
        return seconds, UnitOutcome(
            (campaign_key(base_seed, dim_to),),
            (digest(text),),
            (config.runs + 2) * steps,
        )

    def reference_inputs(self) -> Iterator[Any]:
        yield from CAMPAIGN_KEYS


def workloads() -> Dict[str, Workload]:
    """The benchmark's workloads by name, in reporting order."""
    return {
        "scalar_mix": ScalarMix(),
        "fleet_small": FleetBatches(
            "fleet_small",
            16,
            "16-lane batches (FLEET_AUTO_MIN_BATCH): the fleet's fixed "
            "per-step dispatch dominates",
        ),
        "fleet_large": FleetBatches(
            "fleet_large",
            1024,
            "1024-lane batches: per-lane work (batched PV Newton, control "
            "plane, lane setup, DP replans) dominates",
        ),
        "fault_campaign": FaultCampaign(),
    }

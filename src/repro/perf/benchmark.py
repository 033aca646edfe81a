"""Steps/s benchmark for the engine hot path.

Times the Fig. 8 MPPT workload (the paper's dim-and-retrack scenario:
full DVFS controller, comparator bank, SC regulator -- the engine's
most representative closed loop) in two variants:

* ``reference`` -- :func:`run_reference`: the pre-optimization loop
  (one-element-array power and current solves every step, per-step
  trace interpolation, no decision memo), rebuilt over the
  engine's own :class:`~repro.sim.engine.Lane` so it shares the step
  semantics and keeps only the historical cost profile;
* ``default`` -- :meth:`TransientSimulator.run`: one cold-started
  scalar Newton solve per step, bit-identical to the reference.

Honest numbers, like the parallel campaign bench: wall time is the
best of ``rounds`` timed runs (after one untimed warm-up that also
builds the MPP LUT caches), and bit-identity between the default and
reference results is *measured* on the actual run outputs rather than
assumed.  ``repro bench`` writes the report as JSON.
"""

from __future__ import annotations

import json
import math
import platform
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Tuple

import numpy as np

from repro.core.mppt import DischargeTimeMppTracker, MppTrackingController
from repro.core.system import EnergyHarvestingSoC
from repro.errors import ModelParameterError, SimulationError
from repro.parallel.cache import characterized_system
from repro.pv.traces import IrradianceTrace, step_trace
from repro.sim.engine import Lane, SimulationConfig, TransientSimulator
from repro.sim.result import SimulationResult
from repro.telemetry.profiling import Stopwatch

#: Benchmark variants in reporting order.
VARIANTS: Tuple[str, ...] = ("reference", "default")

#: The acceptance target for the default (bit-exact) path.
TARGET_SPEEDUP = 2.0


@dataclass(frozen=True)
class VariantTiming:
    """Wall-clock result of one solver configuration."""

    variant: str
    rounds: int
    steps: int
    best_wall_s: float
    steps_per_s: float


@dataclass(frozen=True)
class HotpathReport:
    """The full benchmark outcome (serialized to BENCH JSON)."""

    workload: str
    time_step_s: float
    duration_s: float
    rounds: int
    smoke: bool
    timings: Tuple[VariantTiming, ...]
    speedup_default: float
    target_speedup: float
    default_bit_identical: bool

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (sorted by the writer)."""
        return {
            "bench": "engine_hotpath",
            "workload": self.workload,
            "time_step_s": self.time_step_s,
            "duration_s": self.duration_s,
            "rounds": self.rounds,
            "smoke": self.smoke,
            "variants": {
                timing.variant: {
                    "steps": timing.steps,
                    "best_wall_s": round(timing.best_wall_s, 6),
                    "steps_per_s": round(timing.steps_per_s, 1),
                }
                for timing in self.timings
            },
            "speedup_default": round(self.speedup_default, 3),
            "target_speedup": self.target_speedup,
            "default_bit_identical": self.default_bit_identical,
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        }


def run_reference(
    simulator: TransientSimulator,
    trace: IrradianceTrace,
    duration_s: "float | None" = None,
) -> SimulationResult:
    """Run ``simulator`` through the pre-optimization loop.

    The same :class:`~repro.sim.engine.Lane` steps as in
    :meth:`TransientSimulator.run`, so the results are bit-identical;
    only the cost differs: every step solves the harvest power and then
    the current on one-element arrays, evaluates the trace at ``t`` and
    resolves decisions without a memo.  The denominator of the
    hot-path speedup.
    """
    cfg = simulator.config
    dt = cfg.time_step_s
    steps = cfg.steps_for(
        trace.duration_s if duration_s is None else duration_s
    )
    simulator.controller.reset()
    if simulator.comparators is not None:
        simulator.comparators.reset()
    cell = simulator.cell
    capacitor = simulator.node_capacitor

    watch = Stopwatch()
    lane = Lane(simulator, cfg, steps, None)
    t = 0.0
    for step in range(steps + 1):
        v_node = capacitor.voltage_v
        irr = trace(t)
        p_pv = float(cell.power(np.array([v_node]), irr)[0])
        i_draw = lane.step(step, t, v_node, irr, p_pv)
        if i_draw is None:
            break
        i_pv = float(cell.current(np.array([v_node]), irr)[0])
        capacitor.apply_current(i_pv - i_draw, dt)
        if not math.isfinite(capacitor.voltage_v):
            raise SimulationError(f"node voltage became non-finite at t={t}")
        lane.observe(t + dt, capacitor.voltage_v)
        t += dt
    return lane.finish(step, t, watch.elapsed_s())


def _run_fig8_once(
    variant: str,
    system: EnergyHarvestingSoC,
    tracker: DischargeTimeMppTracker,
    time_step_s: float,
    before: float,
    after: float,
    dim_time_s: float,
    duration_s: float,
) -> Tuple[float, SimulationResult]:
    """One timed Fig. 8 run: fresh controller/capacitor, shared models."""
    controller = MppTrackingController(tracker, initial_irradiance=before)
    capacitor = system.new_node_capacitor(system.mpp(before).voltage_v)
    simulator = TransientSimulator(
        cell=system.cell,
        node_capacitor=capacitor,
        processor=system.processor,
        regulator=system.regulator("sc"),
        controller=controller,
        comparators=system.new_comparator_bank(),
        config=SimulationConfig(
            time_step_s=time_step_s, record_every=4, stop_on_brownout=False
        ),
    )
    trace = step_trace(before, after, dim_time_s, duration_s)
    watch = Stopwatch()
    if variant == "reference":
        result = run_reference(simulator, trace)
    else:
        result = simulator.run(trace)
    return watch.elapsed_s(), result


def results_bit_identical(a: SimulationResult, b: SimulationResult) -> bool:
    """Exact equality of every recorded array, scalar and event.

    Public because the fleet bench and the differential equivalence
    harness in ``tests/fleet/`` apply the same definition of
    "bit-identical" to fleet-vs-scalar pairs.
    """
    if any(
        not np.array_equal(getattr(a, name), getattr(b, name))
        for name in Lane.RECORDS
    ):
        return False
    return (
        a.completed == b.completed
        and a.completion_time_s == b.completion_time_s
        and a.browned_out == b.browned_out
        and a.brownout_time_s == b.brownout_time_s
        and a.brownout_count == b.brownout_count
        and a.downtime_s == b.downtime_s
        and a.final_cycles == b.final_cycles
        and a.events == b.events
    )


def run_hotpath_benchmark(
    rounds: int = 3,
    duration_s: float = 60e-3,
    time_step_s: float = 5e-6,
    smoke: bool = False,
) -> HotpathReport:
    """Benchmark both variants on the Fig. 8 workload.

    ``smoke=True`` shrinks the run for CI gates (shorter trace, fewer
    rounds): bit-identity is still measured on real runs, only the
    wall-clock numbers lose statistical weight.
    """
    if rounds < 1:
        raise ModelParameterError(f"rounds must be >= 1, got {rounds}")
    if smoke:
        duration_s = min(duration_s, 12e-3)
        rounds = min(rounds, 2)
    before, after, dim_time_s = 1.0, 0.3, min(5e-3, duration_s / 3)

    system, _lut = characterized_system()
    tracker = DischargeTimeMppTracker(system, "sc")
    steps = int(np.ceil(duration_s / time_step_s))

    results: Dict[str, SimulationResult] = {}
    timings = []
    for variant in VARIANTS:
        # Untimed warm-up: builds the MPP LUT caches and warms
        # allocator + branch caches, like the parallel bench.
        workload = (
            variant, system, tracker, time_step_s, before, after,
            dim_time_s, duration_s,
        )
        _run_fig8_once(*workload)
        best_wall_s = float("inf")
        for _ in range(rounds):
            wall_s, result = _run_fig8_once(*workload)
            best_wall_s = min(best_wall_s, wall_s)
            results[variant] = result
        timings.append(
            VariantTiming(
                variant=variant,
                rounds=rounds,
                steps=steps,
                best_wall_s=best_wall_s,
                steps_per_s=(steps + 1) / best_wall_s,
            )
        )

    by_name = {timing.variant: timing for timing in timings}
    return HotpathReport(
        workload="fig8_mppt",
        time_step_s=time_step_s,
        duration_s=duration_s,
        rounds=rounds,
        smoke=smoke,
        timings=tuple(timings),
        speedup_default=(
            by_name["default"].steps_per_s / by_name["reference"].steps_per_s
        ),
        target_speedup=TARGET_SPEEDUP,
        default_bit_identical=results_bit_identical(
            results["reference"], results["default"]
        ),
    )


def write_report(report: HotpathReport, path: "str | Path") -> Path:
    """Serialize the report as sorted, indented JSON; returns the path."""
    target = Path(path)
    target.write_text(
        json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
    )
    return target

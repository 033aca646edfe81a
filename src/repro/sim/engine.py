"""The transient simulation engine.

One electrical node (the solar node with its storage capacitor), a
converter path (regulator or bypass switch) and the processor load:

    C_node * dV/dt = I_pv(V_node, light(t)) - I_draw(t)

where ``I_draw`` is the converter's input current for the controller's
commanded operating point.  Forward-Euler at a microsecond-scale step
is ample for the millisecond-scale waveforms of the paper (node time
constants are tens of microseconds at the smallest).

The engine is deliberately policy-free: everything interesting happens
in the :class:`~repro.sim.dvfs.DvfsController` plugged into it, which
is exactly how the paper's chip splits hardware (fixed) from the energy
management scheme (the contribution).

The per-step body lives on :class:`Lane`, the loop state of one node.
:class:`TransientSimulator` drives one lane; the batched
:class:`repro.fleet.FleetSimulator` drives the same class for the lanes
it cannot vectorize, so the step semantics are written once.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.errors import (
    ModelParameterError,
    OperatingRangeError,
    SimulationError,
)
from repro.monitor.comparator import ComparatorBank
from repro.processor.energy import ProcessorModel
from repro.processor.workloads import Workload
from repro.pv.cell import SingleDiodeCell
from repro.pv.traces import IrradianceTrace
from repro.regulators.base import Regulator
from repro.sim.dvfs import ControlDecision, ControllerView, DvfsController
from repro.sim.result import SimulationResult
from repro.sim.transitions import DvfsTransitionModel
from repro.storage.capacitor import Capacitor
from repro.telemetry.session import NULL_TELEMETRY, Telemetry

#: Longest run for which the per-step irradiance samples are
#: precomputed as a Python list (~2M steps = tens of MB); longer runs
#: fall back to per-step trace evaluation with identical values.
_IRR_PRECOMPUTE_MAX_SAMPLES = 2_000_001
#: Memoized (voltage, commanded-frequency) -> (clamped frequency,
#: processor power) pairs kept per run before the cache resets.  The
#: mapping is a pure function, so resetting is value-transparent.
_DECISION_CACHE_MAX = 65_536

#: Type of the per-run decision memo shared with the fleet engine.
DecisionCache = Optional[Dict[Tuple[float, float], Tuple[float, float]]]

_MODE_CODES = SimulationResult.MODE_CODES


def clamped_frequency_and_power(
    processor: ProcessorModel,
    v_eval: float,
    commanded_hz: float,
    cache: DecisionCache,
) -> "tuple[float, float]":
    """Supply-clamped frequency and processor power at ``v_eval``.

    A pure function of its float arguments, so the per-run memo (keyed
    on the exact doubles) is value-transparent: the engine revisits the
    same setpoints thousands of times per run, and the frequency/power
    models cost microseconds each.  Module-level so the scalar engine
    and the batched fleet engine resolve decisions through the *same*
    code path (their equivalence is asserted bit-for-bit).
    """
    if cache is not None:
        hit = cache.get((v_eval, commanded_hz))
        if hit is not None:
            return hit
    f = min(commanded_hz, float(processor.max_frequency(v_eval)))
    p_proc = float(processor.power(v_eval, f))
    if cache is not None:
        if len(cache) >= _DECISION_CACHE_MAX:
            cache.clear()
        cache[(v_eval, commanded_hz)] = (f, p_proc)
    return (f, p_proc)


def resolve_decision(
    processor: ProcessorModel,
    regulator: Regulator,
    decision: ControlDecision,
    v_node: float,
    cache: DecisionCache = None,
) -> "tuple[float, float, float, float, str]":
    """Turn a decision into ``(v_proc, f, p_proc, p_draw, mode)``.

    Clamps the commanded frequency to what the supply allows and
    degrades gracefully (to halt) when the converter cannot operate
    from the present node voltage.  Shared by
    :class:`TransientSimulator` and :class:`repro.fleet.FleetSimulator`.
    """
    if decision.mode == "halt":
        # Power-gated: no draw from the node at all.
        return (0.0, 0.0, 0.0, 0.0, "halt")

    if decision.mode == "bypass":
        v_proc = v_node
        if v_proc < processor.min_operating_v:
            return (v_proc, 0.0, 0.0, 0.0, "halt")
        v_eval = min(v_proc, processor.max_operating_v)
        f, p_proc = clamped_frequency_and_power(
            processor, v_eval, decision.frequency_hz, cache
        )
        return (v_proc, f, p_proc, p_proc, "bypass")

    # Regulated.
    v_out = decision.output_voltage_v
    if v_out < processor.min_operating_v:
        return (v_out, 0.0, 0.0, 0.0, "halt")
    f, p_proc = clamped_frequency_and_power(
        processor, v_out, decision.frequency_hz, cache
    )
    try:
        p_draw = regulator.input_power(v_out, p_proc, v_in=v_node)
    except OperatingRangeError:
        # Node too low (duty limit / no ratio band): converter dropout.
        return (v_out, 0.0, 0.0, 0.0, "halt")
    return (v_out, f, p_proc, p_draw, "regulated")


def step_irradiance(
    trace: IrradianceTrace, time_step_s: float, steps: int
) -> "np.ndarray | None":
    """The run's per-step irradiance in one vectorised sweep.

    Piecewise traces are pure interpolation, so the samples are
    bit-identical to per-step ``trace(t)`` calls (see
    :meth:`IrradianceTrace.step_samples`).  ``None`` when the trace has
    no sampler or the run is too long to hold them.
    """
    if steps + 1 > _IRR_PRECOMPUTE_MAX_SAMPLES:
        return None
    sampler = getattr(trace, "step_samples", None)
    return sampler(time_step_s, steps) if sampler is not None else None


@dataclass(frozen=True)
class SimulationConfig:
    """Numerical and termination settings for a run.

    Brownout handling comes in three flavours:

    * ``stop_on_brownout=True`` (default): the first brownout ends the
      run -- the historical terminal semantics.
    * ``stop_on_brownout=False``: the run continues with the load
      stalled; the node may or may not recover on its own.
    * ``recover_from_brownout=True`` (requires ``stop_on_brownout=
      False``): halt-and-recharge recovery -- on brownout the load is
      power-gated, the node recharges until it reaches
      ``recovery_voltage_v`` (the supply monitor's power-good level,
      hysteretically above the collapse voltage), the controller is
      notified through :class:`~repro.sim.dvfs.ControllerView`, and the
      run continues.  Downtime and brownout counts are accounted in the
      result.
    """

    time_step_s: float = 10e-6
    record_every: int = 1
    stop_on_completion: bool = False
    stop_on_brownout: bool = True
    recover_from_brownout: bool = False
    recovery_voltage_v: float = 1.0
    max_steps: int = 20_000_000

    def __post_init__(self) -> None:
        if not (0.0 < self.time_step_s < np.inf):
            raise ModelParameterError(
                f"time step must be finite and positive, got {self.time_step_s}"
            )
        if self.record_every < 1:
            raise ModelParameterError(
                f"record_every must be >= 1, got {self.record_every}"
            )
        if self.max_steps < 1:
            raise ModelParameterError(
                f"max_steps must be >= 1, got {self.max_steps}"
            )
        if not (0.0 < self.recovery_voltage_v < np.inf):
            raise ModelParameterError(
                f"recovery voltage must be finite and positive, got "
                f"{self.recovery_voltage_v}"
            )
        if self.recover_from_brownout and self.stop_on_brownout:
            raise ModelParameterError(
                "recover_from_brownout requires stop_on_brownout=False "
                "(a run cannot both terminate and recover on brownout)"
            )

    def steps_for(self, duration_s: float) -> int:
        """Number of steps after step 0 in a run of ``duration_s``."""
        if not (0.0 < duration_s < np.inf):
            raise ModelParameterError(
                f"duration must be finite and positive, got {duration_s}"
            )
        steps = np.ceil(duration_s / self.time_step_s)
        if steps > self.max_steps:
            raise SimulationError(
                f"{steps:.0f} steps exceed max_steps={self.max_steps}; "
                "raise time_step_s or max_steps"
            )
        return int(steps)


def record_arrays(shape: "int | Tuple[int, int]") -> "Tuple[np.ndarray, ...]":
    """Empty record buffers in :data:`Lane.RECORDS` order."""
    return tuple(np.empty(shape) for _ in range(8)) + (
        np.empty(shape, dtype=np.int8),
    )


class Lane:
    """One node's loop state and per-step body.

    Both engines advance a node through this class, so the step
    semantics exist once: :class:`TransientSimulator` drives one lane,
    :class:`repro.fleet.FleetSimulator` drives its scalar-fallback lanes
    through :meth:`step` and syncs its vectorized lanes into theirs.
    The caller owns the physics around the step: it solves the PV
    current, hands the step the harvest power, and applies
    ``i_pv - i_draw`` to the node.

    ``node`` is anything carrying the loop's substrates as attributes
    (``controller``, ``processor``, ``regulator``, ``comparators``,
    ``workload``, ``transitions``, ``telemetry``): a
    :class:`TransientSimulator` or a fleet node.  ``cache`` is the
    decision memo (``None`` disables it); ``records`` are the nine
    record buffers in :data:`RECORDS` order, allocated when omitted.
    """

    #: Record buffers, named as the :class:`SimulationResult` arrays.
    RECORDS: Tuple[str, ...] = (
        "time_s",
        "node_voltage_v",
        "processor_voltage_v",
        "frequency_hz",
        "harvest_power_w",
        "processor_power_w",
        "draw_power_w",
        "irradiance",
        "mode",
    )

    __slots__ = (
        "controller", "processor", "regulator", "comparators", "transitions",
        "tel", "config", "steps", "target_cycles", "comparator_power",
        "cache", "records", "rec_t", "rec_vnode", "rec_vproc", "rec_f",
        "rec_ppv", "rec_pproc", "rec_pdraw", "rec_irr", "rec_mode",
        "recorded", "cycles", "prev_v_proc", "prev_mode", "prev_setpoint_v",
        "lockout_until", "transition_count", "pending_events", "completed",
        "completion_time", "browned_out", "brownout_time", "brownout_count",
        "downtime_s", "recovering", "in_brownout", "node_collapsed",
        "telemetry_mode", "outage_started_s", "events", "end_step",
        "end_time_s",
    )

    def __init__(
        self,
        node: Any,
        config: SimulationConfig,
        steps: int,
        cache: DecisionCache,
        records: "Tuple[np.ndarray, ...] | None" = None,
    ) -> None:
        self.controller: DvfsController = node.controller
        self.processor: ProcessorModel = node.processor
        self.regulator: Regulator = node.regulator
        self.comparators: "ComparatorBank | None" = node.comparators
        self.transitions: "DvfsTransitionModel | None" = node.transitions
        tel = node.telemetry
        self.tel: Telemetry = tel if tel is not None else NULL_TELEMETRY
        self.config = config
        self.steps = steps
        workload = node.workload
        self.target_cycles = workload.cycles if workload is not None else None
        self.comparator_power = (
            self.comparators.total_power_w if self.comparators is not None
            else 0.0
        )
        self.cache = cache
        if records is None:
            records = record_arrays(steps // config.record_every + 1)
        self.records = records
        (
            self.rec_t, self.rec_vnode, self.rec_vproc, self.rec_f,
            self.rec_ppv, self.rec_pproc, self.rec_pdraw, self.rec_irr,
            self.rec_mode,
        ) = records
        self.recorded = 0

        self.cycles = 0.0
        self.prev_v_proc = 0.0
        self.prev_mode: "str | None" = None
        self.prev_setpoint_v = 0.0
        self.lockout_until = -1.0
        self.transition_count = 0
        self.pending_events: tuple = ()
        self.completed = False
        self.completion_time: "float | None" = None
        self.browned_out = False
        self.brownout_time: "float | None" = None
        self.brownout_count = 0
        self.downtime_s = 0.0
        self.recovering = False
        self.in_brownout = False
        self.node_collapsed = False
        self.telemetry_mode: "str | None" = None
        self.outage_started_s: "float | None" = None
        self.events: list = []
        self.end_step = -1
        self.end_time_s = float("nan")

        self.tel.begin_span(
            "engine.run", 0.0, track="engine",
            dt_s=config.time_step_s, planned_steps=steps,
        )

    def step(
        self, step: int, t: float, v_node: float, irr: float, p_pv: float
    ) -> "float | None":
        """Advance one step; the current drawn from the node, or
        ``None`` when the lane ends at this step (its last step, a
        ``stop_on_brownout`` brownout or ``stop_on_completion``)."""
        cfg = self.config
        tel = self.tel
        dt = cfg.time_step_s

        # Power-good release: the node has recharged past the recovery
        # threshold, so the load may reconnect this step.
        recovering = self.recovering
        if recovering and v_node >= cfg.recovery_voltage_v:
            recovering = self.recovering = False
            self.events.append(("recovered", t))
            tel.event("recovered", t, track="engine", node_v=v_node)
            outage_started_s = self.outage_started_s
            if outage_started_s is not None:
                tel.end_span(t)
                tel.observe("brownout.outage_s", t - outage_started_s)
                self.outage_started_s = None

        decision = self.controller.decide(
            ControllerView(
                time_s=t,
                node_voltage_v=v_node,
                processor_voltage_v=self.prev_v_proc,
                cycles_done=self.cycles,
                comparator_events=self.pending_events,
                recovering=recovering,
                brownout_count=self.brownout_count,
            )
        )
        v_proc, f, p_proc, p_draw, mode = resolve_decision(
            self.processor, self.regulator, decision, v_node, self.cache
        )
        if recovering:
            # Load power-gated while the node recharges; whatever the
            # controller commanded is ignored until power-good.
            v_proc, f, p_proc, p_draw, mode = (0.0, 0.0, 0.0, 0.0, "halt")
        self.prev_v_proc = v_proc

        # DVFS transition accounting: settle lockout + rail recharge.
        transitions = self.transitions
        if transitions is not None:
            prev_setpoint_v = self.prev_setpoint_v
            if transitions.is_transition(
                self.prev_mode, prev_setpoint_v, mode, v_proc
            ):
                self.transition_count += 1
                tel.count("dvfs.transitions")
                tel.event(
                    "dvfs.transition", t, track="engine",
                    previous=self.prev_mode or "", new=mode,
                    setpoint_v=v_proc,
                )
                self.lockout_until = t + transitions.settle_time_s
                recharge = transitions.transition_energy_j(
                    prev_setpoint_v, v_proc
                )
                if recharge > 0.0:
                    p_draw += recharge / dt
            if mode != "halt":
                self.prev_mode = mode
                self.prev_setpoint_v = v_proc
            if t < self.lockout_until and f > 0.0:
                # Clock gated while the supply settles.
                processor = self.processor
                f = 0.0
                p_proc = (
                    float(processor.leakage.power(v_proc))
                    if v_proc >= processor.min_operating_v
                    else 0.0
                )
                if mode == "regulated":
                    try:
                        p_draw = max(
                            p_draw,
                            self.regulator.input_power(
                                v_proc, p_proc, v_in=v_node
                            ),
                        )
                    except OperatingRangeError:
                        pass
                elif mode == "bypass":
                    p_draw = p_proc

        # Converter-path mode switch (regulated <-> bypass <-> halt).
        # Checked before the brownout block so the final switch into
        # halt is still counted when stop_on_brownout ends the lane.
        telemetry_mode = self.telemetry_mode
        if mode != telemetry_mode:
            if telemetry_mode is not None:
                tel.count("regulator.mode_switches")
                tel.event(
                    "regulator.mode_switch", t, track="engine",
                    previous=telemetry_mode, new=mode, node_v=v_node,
                )
            self.telemetry_mode = mode

        # Brownout: the controller asked for work the supply cannot run.
        stalled = (
            decision.frequency_hz > 0.0
            and f == 0.0
            and mode == "halt"
            and decision.mode != "halt"
            and not self.completed
            and not recovering
        )
        last = step == self.steps
        if stalled and not self.in_brownout:
            self.in_brownout = True
            self.browned_out = True
            self.brownout_count += 1
            if self.brownout_time is None:
                self.brownout_time = t
            self.events.append(("brownout", t))
            tel.count("brownout.count")
            tel.event("brownout", t, track="engine", node_v=v_node)
            if cfg.stop_on_brownout:
                # The lane ends here, recording the stall with no draw.
                last = True
                f, p_proc, p_draw = (0.0, 0.0, 0.0)
            elif cfg.recover_from_brownout:
                # Enter halt-and-recharge: power-gate the load until the
                # node climbs back to the recovery threshold.
                recovering = self.recovering = True
                if self.outage_started_s is None:
                    tel.begin_span("brownout.outage", t, track="engine")
                    self.outage_started_s = t
                v_proc, f, p_proc, p_draw, mode = (0.0, 0.0, 0.0, 0.0, "halt")
                self.prev_v_proc = 0.0
        elif f > 0.0:
            # Work resumed: the next stall is a fresh brownout.
            self.in_brownout = False

        if step % cfg.record_every == 0:
            n = self.recorded
            self.rec_t[n] = t
            self.rec_vnode[n] = v_node
            self.rec_vproc[n] = v_proc
            self.rec_f[n] = f
            self.rec_ppv[n] = p_pv
            self.rec_pproc[n] = p_proc
            self.rec_pdraw[n] = p_draw
            self.rec_irr[n] = irr
            self.rec_mode[n] = _MODE_CODES[mode]
            self.recorded = n + 1

        if last:
            return None

        # Cycle bookkeeping and completion detection.
        cycles = self.cycles
        new_cycles = cycles + f * dt
        target_cycles = self.target_cycles
        if (
            target_cycles is not None
            and not self.completed
            and new_cycles >= target_cycles
        ):
            self.completed = True
            # Linear interpolation of the crossing instant.
            if f > 0.0:
                completion_time = t + (target_cycles - cycles) / f
            else:
                completion_time = t
            self.completion_time = completion_time
            self.events.append(("completed", completion_time))
            tel.event(
                "workload.completed", completion_time, track="engine",
                cycles=float(target_cycles),
            )
            if cfg.stop_on_completion:
                self.cycles = new_cycles
                return None
        self.cycles = new_cycles

        # Downtime: the load is power-gated because of a brownout
        # (either recharging in recovery mode or stalled dark).
        if recovering or (self.in_brownout and f == 0.0):
            self.downtime_s += dt

        # Converter + comparators draw from the node.
        demand_w = p_draw + self.comparator_power
        if v_node > 1e-6:
            self.node_collapsed = False
            return demand_w / v_node
        # Fully collapsed node: a 0 V supply cannot source the converter
        # or the monitor electronics, so the demand is explicitly dropped
        # (everything downstream is dead) and the collapse is recorded
        # instead of the power silently vanishing from the energy
        # balance.
        if demand_w > 0.0 and not self.node_collapsed:
            self.node_collapsed = True
            self.events.append(("node_collapse", t))
            tel.event("node.collapse", t, track="engine")
        return 0.0

    def observe(self, t: float, v: float) -> tuple:
        """Comparator events at node voltage ``v``; they feed the next
        step's controller view."""
        bank = self.comparators
        if bank is not None:
            self.pending_events = tuple(bank.observe(t, v))
        return self.pending_events

    def finish(self, step: int, t: float, wall_s: float) -> SimulationResult:
        """End the lane at ``step``/``t``: the after-loop telemetry and
        the recorded result."""
        tel = self.tel
        if self.outage_started_s is not None:
            # Run ended while still browned out: close the span at the
            # final simulated time so the trace stays balanced.
            tel.end_span(t)
            tel.observe("brownout.outage_s", t - self.outage_started_s)
        tel.end_span(t, steps=float(step + 1))
        tel.count("engine.steps", float(step + 1))
        tel.gauge("brownout.downtime_s", self.downtime_s)
        tel.gauge("engine.final_cycles", float(self.cycles))
        tel.profile("engine.run_wall_s", wall_s)
        self.end_step = step
        self.end_time_s = t

        n = self.recorded
        result = SimulationResult(
            **{
                name: buffer[:n].copy()
                for name, buffer in zip(self.RECORDS, self.records)
            },
            completed=self.completed,
            completion_time_s=self.completion_time,
            browned_out=self.browned_out,
            brownout_time_s=self.brownout_time,
            brownout_count=self.brownout_count,
            downtime_s=self.downtime_s,
            final_cycles=self.cycles,
            events=self.events,
            metrics=tel.result_metrics(),
        )
        if self.transitions is not None:
            result.events.append(("transitions", float(self.transition_count)))
        return result


class TransientSimulator:
    """Simulate the battery-less SoC on an irradiance trace.

    Parameters
    ----------
    cell / node_capacitor / processor:
        The physical substrates.
    regulator:
        The converter used in "regulated" mode decisions.
    controller:
        The DVFS policy closing the loop.
    comparators:
        Optional comparator bank observing the node (its crossings are
        fed back to the controller, its draw is charged to the node).
    workload:
        Optional workload; when given, completion is tracked.
    transitions:
        Optional DVFS transition-cost model; when given, every mode or
        setpoint change gates the clock for the settle time and draws
        the rail-recharge energy from the node.
    telemetry:
        Optional :class:`~repro.telemetry.session.Telemetry` sink.
        The engine emits sim-time events/spans (mode switches, DVFS
        transitions, brownouts, recoveries) and per-run metrics into
        it; the default no-op sink records nothing and adds no
        per-step work.
    """

    def __init__(
        self,
        cell: SingleDiodeCell,
        node_capacitor: Capacitor,
        processor: ProcessorModel,
        regulator: Regulator,
        controller: DvfsController,
        comparators: "ComparatorBank | None" = None,
        workload: "Workload | None" = None,
        config: "SimulationConfig | None" = None,
        transitions: "DvfsTransitionModel | None" = None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self.cell = cell
        self.node_capacitor = node_capacitor
        self.processor = processor
        self.regulator = regulator
        self.controller = controller
        self.comparators = comparators
        self.workload = workload
        self.config = config or SimulationConfig()
        self.transitions = transitions
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

    def run(self, trace: IrradianceTrace, duration_s: "float | None" = None) -> SimulationResult:
        """Simulate over the trace; returns the recorded result.

        ``duration_s`` defaults to the trace duration.  The node
        capacitor is mutated in place (copy it first to preserve a
        bench setup).
        """
        cfg = self.config
        dt = cfg.time_step_s
        steps = cfg.steps_for(
            trace.duration_s if duration_s is None else duration_s
        )
        self.controller.reset()
        if self.comparators is not None:
            self.comparators.reset()

        # One cold-started scalar Newton solve per step, harvest power
        # derived from it; harvesters without the scalar solver pay a
        # power and a current call.
        cell = self.cell
        solve = getattr(cell, "current_scalar", None)
        samples = step_irradiance(trace, dt, steps)
        irr_samples = samples.tolist() if samples is not None else None
        capacitor = self.node_capacitor

        wall_started = time.perf_counter()
        lane = Lane(self, cfg, steps, {})
        t = 0.0
        for step in range(steps + 1):
            v_node = capacitor.voltage_v
            irr = irr_samples[step] if irr_samples is not None else trace(t)
            if solve is not None:
                i_pv = solve(v_node, irr)
                i_draw = lane.step(step, t, v_node, irr, v_node * i_pv)
                if i_draw is None:
                    break
            else:
                i_draw = lane.step(
                    step, t, v_node, irr, float(cell.power(v_node, irr))
                )
                if i_draw is None:
                    break
                i_pv = float(cell.current(v_node, irr))
            capacitor.apply_current(i_pv - i_draw, dt)
            if not math.isfinite(capacitor.voltage_v):
                raise SimulationError(f"node voltage became non-finite at t={t}")
            lane.observe(t + dt, capacitor.voltage_v)
            t += dt
        return lane.finish(step, t, time.perf_counter() - wall_started)

"""Per-layer host-time attribution for the traced benchmark run.

The traced run wraps the public functions of each simulator layer in a
timing span, patched where the caller resolves the name: a method on
its class, or a from-imported function in every module that imported
it (``repro.fleet.engine.batched_current`` rather than
``repro.fleet.pv.batched_current``).  Spans are kept in memory as
compact arrays of (name, parent, start, end) and written out when the
run ends.  A function's self time is its span durations minus the
durations of its child spans; host time of the traced window covered
by no span is ``trace.unattributed_s``.  The self times add up to the
root spans' durations, so they close on the traced wall with the
unattributed time only if the root spans are closed, lie inside the
window and do not overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.telemetry.profiling import PhaseTimer


@dataclass(frozen=True)
class Layer:
    """One wrapped function and what it is expected to move."""

    name: str
    targets: Tuple[str, ...]  # "module:Attr" or "module:Class.method"
    active: Tuple[str, ...]  # workloads on which calls must be > 0
    moves: Tuple[str, ...]  # end-to-end metrics a change here moves


_SCALAR = ("node_steps_per_s", "run_p50_s", "run_p90_s")
_THROUGHPUT = ("node_steps_per_s",)

#: Every wrapped function.  ``active`` lists the workloads the layer
#: mapping marks for the layer; the liveness gate requires calls > 0
#: there, which catches a wrapper on a name the caller no longer
#: resolves.
LAYERS: Tuple[Layer, ...] = (
    Layer("sim.run", ("repro.sim.engine:TransientSimulator.run",), ("scalar_mix",), _SCALAR),
    Layer("pv.current_scalar", ("repro.pv.cell:SingleDiodeCell.current_scalar",), ("scalar_mix",), _SCALAR),
    Layer("core.mppt_decide", ("repro.core.mppt:MppTrackingController.decide",), ("scalar_mix",), _SCALAR),
    Layer("core.duty_cycle_decide", ("repro.core.duty_cycle:DutyCycleController.decide",), ("scalar_mix",), _SCALAR),
    Layer("core.sprint_decide", ("repro.core.sprint:SprintController.decide",), ("scalar_mix",), _SCALAR),
    Layer("regulators.sc_input_power", ("repro.regulators.switched_capacitor:SwitchedCapacitorRegulator.input_power",), ("scalar_mix",), _SCALAR),
    Layer("regulators.buck_input_power", ("repro.regulators.buck:BuckRegulator.input_power",), ("scalar_mix",), _SCALAR),
    Layer("regulators.sc_max_output_power", ("repro.regulators.switched_capacitor:SwitchedCapacitorRegulator.max_output_power",), ("scalar_mix",), _SCALAR),
    Layer("monitor.observe", ("repro.monitor.comparator:ComparatorBank.observe",), ("scalar_mix",), _SCALAR),
    # The engines integrate the node with Capacitor.apply_current;
    # nothing in the step loops calls apply_power.
    Layer("storage.apply_current", ("repro.storage.capacitor:Capacitor.apply_current",), ("scalar_mix",), _SCALAR),
    Layer("fleet.run", ("repro.fleet.engine:FleetSimulator.run",), ("fleet_small", "fleet_large"), ("node_steps_per_s", "run_p50_s")),
    Layer("fleet.batched_current", ("repro.fleet.engine:batched_current",), ("fleet_large",), _THROUGHPUT),
    Layer("fleet.control_refresh", ("repro.fleet.control:ControlPlane.refresh",), ("fleet_large",), _THROUGHPUT),
    Layer("fleet.control_resolve", ("repro.fleet.control:ControlPlane.resolve",), ("fleet_large",), _THROUGHPUT),
    Layer("fleet.band_scan", ("repro.fleet.control:ScBandTable.scan",), ("fleet_large",), _THROUGHPUT),
    Layer("fleet.classify", ("repro.fleet.engine:classify_controller",), ("fleet_large",), ("run_p50_s",)),
    Layer("parallel.stable_fingerprint", ("repro.fleet.control:stable_fingerprint",), ("fleet_large",), ("run_p50_s",)),
    Layer("core.operating_point_for", ("repro.core.mppt:DischargeTimeMppTracker.operating_point_for",), ("fault_campaign",), _THROUGHPUT),
    Layer("core.best_point", ("repro.core.operating_point:OperatingPointOptimizer.best_point",), ("fault_campaign",), _THROUGHPUT),
    Layer("pv.current", ("repro.pv.cell:SingleDiodeCell.current",), ("fault_campaign",), _THROUGHPUT),
    Layer("pv.find_mpp", ("repro.core.system:find_mpp", "repro.monitor.lut:find_mpp"), ("fault_campaign",), _THROUGHPUT),
    Layer("processor.max_frequency", ("repro.processor.energy:ProcessorModel.max_frequency",), ("fault_campaign",), _THROUGHPUT),
    Layer("processor.frequency_for_power", ("repro.processor.energy:ProcessorModel.frequency_for_power",), ("fault_campaign",), _THROUGHPUT),
    Layer("planner.solve_plan", ("repro.planner.dp:solve_plan", "repro.planner.adapter:solve_plan", "repro.planner.horizon:solve_plan"), ("fleet_large", "scalar_mix"), _THROUGHPUT),
    Layer("faults.draw_faults", ("repro.faults.campaign:draw_faults", "repro.fleet.campaign:draw_faults"), ("fault_campaign",), ("run_p50_s",)),
    Layer("faults.faulted_system", ("repro.faults.campaign:faulted_system", "repro.fleet.campaign:faulted_system"), ("fault_campaign",), ("run_p50_s",)),
    Layer("faults.run_transient_campaign", ("repro.faults.campaign:run_transient_campaign",), ("fault_campaign",), ("run_p50_s",)),
    Layer("parallel.run_sharded", ("repro.faults.campaign:run_sharded",), ("fault_campaign",), ("run_p50_s",)),
    Layer("parallel.characterized_system", ("repro.parallel.cache:characterized_system", "repro.faults.campaign:characterized_system", "repro.fleet.campaign:characterized_system"), ("scalar_mix", "fleet_small", "fleet_large", "fault_campaign"), ("setup_s",)),
)

#: Fleet step-loop phases read through ``FleetSimulator.phase_timer``.
FLEET_PHASES: Tuple[str, ...] = ("pv", "control", "capacitor", "record")

#: Largest relative gap allowed between the traced wall and the sum of
#: every self time plus the unattributed time (floating-point rounding
#: of the span arithmetic only; an unclosed, overlapping or escaping
#: root span opens a gap of its own length).
CLOSURE_TOLERANCE = 1e-6

#: Derived metrics recorded with no wrapper of their own.
DERIVED: Tuple[Tuple[str, str, str], ...] = (
    ("core.op_memo_hit_ratio", "ratio", "higher"),
    *((f"fleet.phase.{phase}_s", "s", "lower") for phase in FLEET_PHASES),
    ("fleet.lanes.vectorized_frac", "ratio", "higher"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of every metric a traced run reports."""
    out: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        out.append((f"{layer.name}.calls", "count", "lower"))
        out.append((f"{layer.name}.self_s", "s", "lower"))
    out.extend(DERIVED)
    return out


def _resolve(target: str) -> "Tuple[Any, str]":
    """``(owner, attribute)`` a target string names."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if attr not in vars(owner):
        raise AttributeError(f"{target} is not defined where it is patched")
    return owner, attr


class SpanRecorder:
    """Installs the layer wrappers and records their spans."""

    def __init__(self) -> None:
        self.names = [layer.name for layer in LAYERS]
        self._name_ids = array("i")
        self._parents = array("l")
        self._starts = array("d")
        self._ends = array("d")
        self._stack: List[int] = [-1]
        self._patched: List[Tuple[Any, str, Any]] = []
        self.phase_timer = PhaseTimer()
        self.fleet_lanes = 0
        self.fleet_vectorized = 0
        self.started = 0.0
        self.stopped = 0.0

    def _wrap(self, fn: Callable[..., Any], name_id: int) -> Callable[..., Any]:
        ids, parents = self._name_ids, self._parents
        starts, ends, stack = self._starts, self._ends, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return span

    def _fleet_hooks(self, run: Callable[..., Any]) -> Callable[..., Any]:
        """Read the fleet's public phase-timer and control-summary hooks,
        also for fleets a campaign builds internally."""

        @functools.wraps(run)
        def hooked(simulator: Any, *args: Any, **kwargs: Any) -> Any:
            if simulator.phase_timer is None:
                simulator.phase_timer = self.phase_timer
            try:
                return run(simulator, *args, **kwargs)
            finally:
                summary = simulator.control_summary
                if summary is not None:
                    self.fleet_lanes += int(summary["lanes"])
                    self.fleet_vectorized += int(summary["vectorized"])

        return hooked

    def install(self) -> None:
        """Patch every target and start the traced wall clock."""
        for name_id, layer in enumerate(LAYERS):
            resolved = [_resolve(target) for target in layer.targets]
            originals = {id(getattr(owner, attr)) for owner, attr in resolved}
            if len(originals) != 1:
                raise RuntimeError(
                    f"{layer.name}: targets resolve to different objects"
                )
            original = getattr(*resolved[0])
            inner = original
            if layer.name == "fleet.run":
                inner = self._fleet_hooks(original)
            wrapper = self._wrap(inner, name_id)
            for owner, attr in resolved:
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        self.started = time.perf_counter()

    def uninstall(self) -> None:
        """Stop the traced wall clock and restore every original."""
        self.stopped = time.perf_counter()
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        """The recorded spans as numpy views (no copies) of the buffers."""
        return {
            "name_id": np.frombuffer(self._name_ids, dtype=np.int32),
            "parent": np.frombuffer(self._parents, dtype=np.int64),
            "start_s": np.frombuffer(self._starts, dtype=np.float64),
            "end_s": np.frombuffer(self._ends, dtype=np.float64),
        }

    def write(self, path: str, spans: Dict[str, np.ndarray]) -> None:
        """Write the spans (and the name table) as one ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            traced_from_s=np.float64(self.started),
            traced_to_s=np.float64(self.stopped),
            **spans,
        )

    def summarize(self, spans: Dict[str, np.ndarray]) -> "Dict[str, float]":
        """Calls and self time per layer, plus the derived metrics that
        need only the spans (``trace.overhead_ratio`` is the caller's)."""
        n_names = len(self.names)
        ids, parent = spans["name_id"], spans["parent"]
        duration = spans["end_s"] - spans["start_s"]
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent],
            minlength=len(duration),
        )
        self_time = duration - child_time
        calls = np.bincount(ids, minlength=n_names)
        self_by_name = np.bincount(ids, weights=self_time, minlength=n_names)
        wall = self.stopped - self.started
        unattributed = wall - covered_seconds(
            spans["start_s"][~has_parent], spans["end_s"][~has_parent],
            self.started, self.stopped,
        )

        out: Dict[str, float] = {}
        for name_id, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[name_id])
            out[f"{name}.self_s"] = float(self_by_name[name_id])

        memo_calls = out["core.operating_point_for.calls"]
        memo_id = self.names.index("core.operating_point_for")
        best_id = self.names.index("core.best_point")
        misses = int(np.count_nonzero(
            (ids == best_id) & has_parent
            & (ids[np.maximum(parent, 0)] == memo_id)
        ))
        out["core.op_memo_hit_ratio"] = (
            1.0 - misses / memo_calls if memo_calls else 0.0
        )
        for phase in FLEET_PHASES:
            out[f"fleet.phase.{phase}_s"] = float(
                self.phase_timer.phase_wall_s.get(phase, 0.0)
            )
        out["fleet.lanes.vectorized_frac"] = (
            self.fleet_vectorized / self.fleet_lanes if self.fleet_lanes else 0.0
        )
        out["trace.unattributed_s"] = unattributed
        out["trace.wall_s"] = wall
        return out


def covered_seconds(
    starts: np.ndarray, ends: np.ndarray, window_from: float, window_to: float
) -> float:
    """Length of the union of the intervals ``[start, end]`` clipped to
    the window; an interval with ``end < start`` covers nothing."""
    order = np.argsort(starts, kind="stable")
    starts = np.clip(starts[order], window_from, window_to)
    ends = np.clip(ends[order], window_from, window_to)
    # Each interval adds what reaches past every earlier interval's end.
    reached = np.maximum.accumulate(np.concatenate(([window_from], ends)))[:-1]
    return float(np.maximum(ends - np.maximum(starts, reached), 0.0).sum())


def closure_error(summary: Dict[str, float], names: Sequence[str]) -> float:
    """Relative gap between the traced wall and self times + unattributed."""
    wall = summary["trace.wall_s"]
    total = sum(summary[f"{name}.self_s"] for name in names)
    total += summary["trace.unattributed_s"]
    return abs(total - wall) / wall if wall > 0.0 else 0.0


def dead_wrappers(summary: Dict[str, float], workload: str) -> List[str]:
    """Layers the mapping marks active on ``workload`` with no calls."""
    return [
        layer.name
        for layer in LAYERS
        if workload in layer.active and summary[f"{layer.name}.calls"] == 0
    ]

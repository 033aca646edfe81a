"""The batched (structure-of-arrays) fleet simulation engine.

:class:`FleetSimulator` advances ``B`` *independent* harvest-store-
compute nodes through one shared time grid.  The expensive physics --
the implicit single-diode PV solve and the capacitor integration -- run
as masked array updates across all live lanes per step.  The per-lane
decision path is split by the control plane
(:mod:`repro.fleet.control`): lanes whose controllers classify into a
vectorizable family advance through batched skip predicates and masked
array resolution (real ``decide`` calls only when the controller's own
trigger conditions fire); unknown controller subclasses and lanes with
DVFS transition models advance through the scalar engine's own
:meth:`repro.sim.engine.Lane.step`, so their step semantics are the
scalar engine's by construction.

**The equivalence guarantee.**  Lane ``i`` of a fleet run is
bit-identical to a scalar :class:`~repro.sim.engine.TransientSimulator`
run of the same node: every float operation happens in the same order
on the same doubles (the batched Newton freezes each lane exactly where
the scalar iteration would return -- see :mod:`repro.fleet.pv` -- the
vectorised capacitor update preserves the scalar expression order, and
the control plane's vector resolution replays the scalar decision
resolution expression by expression), and skipped controller calls are
provably no-ops.  ``tests/fleet/`` asserts this across the full
scenario matrix; the differential harness is the contract.

Every lane owns a :class:`~repro.sim.engine.Lane` whose record buffers
are rows of the fleet's record arrays.  Vectorized lanes keep their
continuously-updated state in the fleet's arrays and sync it into
their ``Lane`` when they end; results and :class:`FleetState` are built
from the lanes.

Masking semantics: a lane dies (``stop_on_brownout`` break,
``stop_on_completion`` break) by leaving the live mask -- its state
freezes at its own end step while surviving lanes march on, so lane
death never perturbs a neighbour (also a tested property).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple, cast

import numpy as np

from repro.errors import ModelParameterError, SimulationError
from repro.core.mppt import MppTrackingController
from repro.fleet.control import (
    FALLBACK_FAMILY,
    FAMILY_CODES,
    M_HALT,
    MODE_NAMES,
    ComparatorLens,
    ControlPlane,
    classify_controller,
    shared_decision_caches,
)
from repro.fleet.pv import CellParams, batched_current
from repro.fleet.state import NO_MODE, FleetState
from repro.monitor.comparator import ComparatorBank
from repro.processor.energy import ProcessorModel
from repro.processor.workloads import Workload
from repro.pv.cell import SingleDiodeCell
from repro.pv.traces import IrradianceTrace
from repro.regulators.base import Regulator
from repro.sim.dvfs import ControllerView, DvfsController
from repro.sim.engine import (
    Lane,
    SimulationConfig,
    record_arrays,
    step_irradiance,
)
from repro.sim.result import SimulationResult
from repro.sim.transitions import DvfsTransitionModel
from repro.storage.capacitor import Capacitor
from repro.telemetry.profiling import PhaseTimer, Stopwatch
from repro.telemetry.session import NULL_TELEMETRY, Telemetry


@dataclass
class FleetNode:
    """One lane of a fleet: the same substrates a scalar run takes.

    ``telemetry`` is per-lane so each node's metric registry matches
    the scalar engine's per-run session exactly; ``seed`` is optional
    provenance (the campaign fault-draw seed) carried into
    :class:`~repro.fleet.state.FleetState`.
    """

    cell: SingleDiodeCell
    capacitor: Capacitor
    processor: ProcessorModel
    regulator: Regulator
    controller: DvfsController
    comparators: "ComparatorBank | None" = None
    workload: "Workload | None" = None
    transitions: "DvfsTransitionModel | None" = None
    telemetry: "Telemetry | None" = None
    seed: "int | None" = None


class FleetSimulator:
    """Simulate a batch of independent nodes on per-lane traces.

    Parameters
    ----------
    nodes:
        One :class:`FleetNode` per lane.
    config:
        Shared :class:`~repro.sim.engine.SimulationConfig` -- the fleet
        batches *homogeneous-config* shards.
    telemetry:
        Optional *fleet-level* session for control-plane counters
        (``fleet.lanes``, ``fleet.lanes.vectorized``, ``fleet.lanes.
        fallback``, ``fleet.lanes.family.<name>``).  Per-lane sessions
        stay on the nodes so lane metrics remain bit-identical to
        scalar runs.
    """

    def __init__(
        self,
        nodes: Sequence[FleetNode],
        config: "SimulationConfig | None" = None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        if not nodes:
            raise ModelParameterError("a fleet needs at least one node")
        self.nodes = list(nodes)
        self.config = config or SimulationConfig()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: Populated by :meth:`run`; the end-of-run SoA snapshot.
        self.state: "FleetState | None" = None
        #: Populated by :meth:`run`; lane classification counts
        #: (``{"lanes", "vectorized", "fallback", "families"}``).
        self.control_summary: "Dict[str, object] | None" = None
        #: Optional per-phase wall profiler installed by benchmarks
        #: (see :class:`~repro.telemetry.profiling.PhaseTimer`).
        self.phase_timer: "PhaseTimer | None" = None

    # -- the run -------------------------------------------------------------

    def run(
        self,
        traces: Sequence[IrradianceTrace],
        duration_s: "float | None" = None,
    ) -> List[SimulationResult]:
        """Advance every lane over its trace; per-lane results in order.

        ``duration_s`` defaults to the (common) trace duration; lanes
        share one time grid, so heterogeneous trace durations require
        an explicit ``duration_s``.  Each lane's capacitor is mutated
        to its final voltage, as the scalar engine does.
        """
        nodes = self.nodes
        batch = len(nodes)
        if len(traces) != batch:
            raise ModelParameterError(
                f"got {len(traces)} traces for {batch} nodes"
            )
        cfg = self.config
        dt = cfg.time_step_s
        if duration_s is None:
            durations = {trace.duration_s for trace in traces}
            if len(durations) != 1:
                raise ModelParameterError(
                    "lanes have different trace durations "
                    f"({sorted(durations)}); pass duration_s explicitly"
                )
            duration_s = durations.pop()
        steps = cfg.steps_for(duration_s)

        for node in nodes:
            node.controller.reset()
            if node.comparators is not None:
                node.comparators.reset()

        # -- per-lane constants ---------------------------------------
        controllers = [node.controller for node in nodes]
        processors = [node.processor for node in nodes]
        regulators = [node.regulator for node in nodes]
        comparators = [node.comparators for node in nodes]
        targets: "List[float | None]" = [
            node.workload.cycles if node.workload is not None else None
            for node in nodes
        ]
        # Fleet-level decision memo: lanes with fingerprint-identical
        # processors share one (v_eval, commanded_hz) cache (value-
        # transparent -- sharing changes hit rates, never values).
        caches: "List[Dict[Tuple[float, float], Tuple[float, float]]]" = (
            shared_decision_caches(processors)
        )

        # Batched PV when every lane is a plain SingleDiodeCell;
        # otherwise exact per-lane solves, as the scalar engine does.
        params = CellParams.from_cells([node.cell for node in nodes])
        scalar_solves = [
            getattr(node.cell, "current_scalar", None) for node in nodes
        ]

        # Per-lane irradiance, precomputed in one vectorised sweep per
        # trace when possible (bit-identical; see step_samples).
        irr_rows = [step_irradiance(trace, dt, steps) for trace in traces]
        irr_mat: "np.ndarray | None" = None
        if all(row is not None for row in irr_rows):
            irr_mat = np.stack([row for row in irr_rows if row is not None])

        # -- control-plane classification -----------------------------
        # A lane vectorizes only when the batched PV solve and the
        # precomputed irradiance grid are available (the plane's step
        # arrays come from them) and the lane's controller/regulator
        # pass every classify_controller guard.
        vector_ready = params is not None and irr_mat is not None
        families: "List[str | None]" = []
        for i in range(batch):
            family: "str | None" = None
            if vector_ready:
                family = classify_controller(
                    controllers[i],
                    processors[i],
                    regulators[i],
                    nodes[i].transitions is not None,
                )
                if family is not None:
                    target = targets[i]
                    if target is not None and float(target) != target:
                        family = None  # float mirror would round
            families.append(family)
        fast_idx = [i for i, fam in enumerate(families) if fam is not None]
        slow_idx = [i for i, fam in enumerate(families) if fam is None]
        nf = len(fast_idx)
        family_counts: "Dict[str, int]" = {}
        for fam in families:
            if fam is not None:
                family_counts[fam] = family_counts.get(fam, 0) + 1
        self.control_summary = {
            "lanes": batch,
            "vectorized": nf,
            "fallback": batch - nf,
            "families": dict(sorted(family_counts.items())),
        }
        fleet_tel = self.telemetry
        fleet_tel.count("fleet.lanes", float(batch))
        fleet_tel.count("fleet.lanes.vectorized", float(nf))
        fleet_tel.count("fleet.lanes.fallback", float(batch - nf))
        for fam, fam_count in sorted(family_counts.items()):
            fleet_tel.count(f"fleet.lanes.family.{fam}", float(fam_count))

        # -- SoA electrical state and per-lane scratch ----------------
        v = np.array([node.capacitor.voltage_v for node in nodes])
        cap_c = np.array([node.capacitor.capacitance_f for node in nodes])
        cap_esr = np.array([node.capacitor.esr_ohm for node in nodes])
        cap_vmax = np.array([node.capacitor.max_voltage_v for node in nodes])
        cap_leak = np.array(
            [node.capacitor.leakage_current_a for node in nodes]
        )
        live = np.ones(batch, dtype=bool)
        irr_col = np.zeros(batch)
        i_net_arr = np.zeros(batch)
        # Python-float mirrors of the hot per-lane reads: one tolist()
        # per step costs far less than per-lane numpy scalar indexing,
        # and float64 -> Python float is exact.  Only needed while
        # scalar-fallback lanes are alive.
        v_list: "list" = v.tolist()
        irr_pylists: "List[list | None]" = [
            row.tolist() if row is not None else None for row in irr_rows
        ]
        irr_steps: "np.ndarray | None" = (
            np.ascontiguousarray(irr_mat.T) if irr_mat is not None else None
        )

        records = record_arrays((batch, steps // cfg.record_every + 1))
        (
            rec_t, rec_vnode, rec_vproc, rec_f, rec_ppv, rec_pproc,
            rec_pdraw, rec_irr, rec_mode,
        ) = records

        # -- control plane and fast-lane state arrays -----------------
        plane: "ControlPlane | None" = None
        lens: "ComparatorLens | None" = None
        noisy_banks: "List[Tuple[int, int, ComparatorBank]]" = []
        if nf:
            plane = ControlPlane(
                fast_idx,
                cast("List[str]", [families[i] for i in fast_idx]),
                [controllers[i] for i in fast_idx],
                [processors[i] for i in fast_idx],
                [regulators[i] for i in fast_idx],
                [caches[i] for i in fast_idx],
            )
            fidx = np.array(fast_idx, dtype=np.intp)
            faliveF = np.ones(nf, dtype=bool)
            cyclesF = np.zeros(nf)
            prev_vprocF = np.zeros(nf)
            tmodeF = np.full(nf, NO_MODE, dtype=np.int8)
            recoveringF = np.zeros(nf, dtype=bool)
            in_boF = np.zeros(nf, dtype=bool)
            completedF = np.zeros(nf, dtype=bool)
            collapsedF = np.zeros(nf, dtype=bool)
            downtimeF = np.zeros(nf)
            bocountF = np.zeros(nf, dtype=np.int64)
            v_prevF = v[fidx]
            pendF = np.zeros(nf, dtype=bool)
            targetF = np.array(
                [
                    np.nan if targets[i] is None else float(targets[i])
                    for i in fast_idx
                ]
            )
            has_targetF = ~np.isnan(targetF)
            comp_powF = np.array(
                [
                    0.0 if bank is None else bank.total_power_w
                    for bank in [comparators[i] for i in fast_idx]
                ]
            )
            posF_alive = np.arange(nf)
            fidx_alive = fidx
            pend_rows: "List[int]" = []
            # Comparator service split: noiseless banks go through the
            # skip-predicate lens; noisy banks must observe every step
            # (their noise stream advances per sample).
            served_pos: "List[int]" = []
            served_banks: "List[ComparatorBank]" = []
            for pos_k, i in enumerate(fast_idx):
                bank = comparators[i]
                if bank is None:
                    continue
                if bank.noiseless:
                    served_pos.append(pos_k)
                    served_banks.append(bank)
                else:
                    noisy_banks.append((pos_k, i, bank))
            if served_pos:
                lens = ComparatorLens(served_pos, served_banks)

        watch = Stopwatch()
        lanes = [
            Lane(node, cfg, steps, caches[i], tuple(rec[i] for rec in records))
            for i, node in enumerate(nodes)
        ]
        results: "List[Any]" = [None] * batch

        def finish(i: int, lane_step: int, lane_t: float) -> None:
            """End lane ``i``: the scalar engine's after-loop block."""
            results[i] = lanes[i].finish(lane_step, lane_t, watch.elapsed_s())
            live[i] = False

        def sync(kk: int) -> Lane:
            """Copy fast lane ``kk``'s array state into its ``Lane``."""
            lane = lanes[fast_idx[kk]]
            lane.cycles = float(cyclesF[kk])
            lane.prev_v_proc = float(prev_vprocF[kk])
            lane.downtime_s = float(downtimeF[kk])
            lane.recovering = bool(recoveringF[kk])
            lane.in_brownout = bool(in_boF[kk])
            lane.node_collapsed = bool(collapsedF[kk])
            lane.brownout_count = int(bocountF[kk])
            tmode_code = int(tmodeF[kk])
            lane.telemetry_mode = (
                None if tmode_code == NO_MODE else MODE_NAMES[tmode_code]
            )
            lane.recorded = step // cfg.record_every + 1
            return lane

        timer = self.phase_timer
        slow_alive = list(slow_idx)
        all_alive = True
        t = 0.0
        step = 0
        t_mark = 0.0
        for step in range(steps + 1):
            if timer is not None:
                t_mark = timer.mark()
            # One batched PV solve across all live lanes.
            i_pv_list: "list | None" = None
            i_pv_arr: "np.ndarray | None" = None
            if params is not None:
                if irr_steps is not None:
                    irr_arr = irr_steps[step]
                else:
                    for i in slow_alive:
                        pylist = irr_pylists[i]
                        irr_col[i] = (
                            pylist[step]
                            if pylist is not None
                            else traces[i](t)
                        )
                    irr_arr = irr_col
                i_pv_arr = batched_current(params, v, irr_arr, live)
                if slow_alive:
                    i_pv_list = i_pv_arr.tolist()
            if timer is not None:
                t_mark = timer.add("pv", t_mark)

            any_died = False

            # ---- vectorized control plane (classified lanes) --------
            if nf:
                assert plane is not None
                assert i_pv_arr is not None and irr_steps is not None
                vF = v[fidx]
                ipvF = i_pv_arr[fidx]
                ppvF = vF * ipvF
                irrF = irr_steps[step][fidx]

                # Power-good release (see Lane.step).
                if recoveringF.any():
                    release = (
                        faliveF
                        & recoveringF
                        & (vF >= cfg.recovery_voltage_v)
                    )
                    for k in np.nonzero(release)[0]:
                        kk = int(k)
                        lane = lanes[fast_idx[kk]]
                        tel = lane.tel
                        recoveringF[kk] = False
                        v_node = float(vF[kk])
                        lane.events.append(("recovered", t))
                        tel.event(
                            "recovered", t, track="engine", node_v=v_node
                        )
                        outage_start = lane.outage_started_s
                        if outage_start is not None:
                            tel.end_span(t)
                            tel.observe(
                                "brownout.outage_s", t - outage_start
                            )
                            lane.outage_started_s = None

                # Real decide calls only where the skip predicates fire.
                need = plane.decision_flags(
                    step, t, vF, v_prevF, cyclesF, recoveringF, bocountF,
                    pendF,
                )
                need &= faliveF
                if need.any():
                    for k in np.nonzero(need)[0]:
                        kk = int(k)
                        i = fast_idx[kk]
                        controller = controllers[i]
                        if step > 0 and families[i] == "mppt":
                            cast(
                                MppTrackingController, controller
                            ).sync_last_node_v(float(v_prevF[kk]))
                        v_node = float(vF[kk])
                        view = ControllerView(
                            time_s=t,
                            node_voltage_v=v_node,
                            processor_voltage_v=float(prev_vprocF[kk]),
                            cycles_done=float(cyclesF[kk]),
                            comparator_events=lanes[i].pending_events,
                            recovering=bool(recoveringF[kk]),
                            brownout_count=int(bocountF[kk]),
                        )
                        plane.refresh(kk, controller.decide(view), v_node)
                plane.bypass_commands(vF, faliveF)

                (
                    v_procF, fF, p_procF, p_drawF, modeF, dec_fF, dec_modeF,
                ) = plane.resolve(vF, faliveF)
                if recoveringF.any():
                    gate = recoveringF & faliveF
                    v_procF = np.where(gate, 0.0, v_procF)
                    fF = np.where(gate, 0.0, fF)
                    p_procF = np.where(gate, 0.0, p_procF)
                    p_drawF = np.where(gate, 0.0, p_drawF)
                    modeF = np.where(gate, M_HALT, modeF).astype(np.int8)
                prev_vprocF = np.where(faliveF, v_procF, prev_vprocF)

                # Converter-path mode switch telemetry.
                changed = faliveF & (modeF != tmodeF)
                if changed.any():
                    for k in np.nonzero(changed)[0]:
                        kk = int(k)
                        old_code = int(tmodeF[kk])
                        if old_code != NO_MODE:
                            tel = lanes[fast_idx[kk]].tel
                            tel.count("regulator.mode_switches")
                            tel.event(
                                "regulator.mode_switch", t, track="engine",
                                previous=MODE_NAMES[old_code],
                                new=MODE_NAMES[int(modeF[kk])],
                                node_v=float(vF[kk]),
                            )
                    tmodeF[changed] = modeF[changed]

                # Brownout: commanded work the supply cannot run.
                stalled = (
                    (dec_fF > 0.0)
                    & (fF == 0.0)
                    & (modeF == M_HALT)
                    & (dec_modeF != M_HALT)
                    & ~completedF
                    & ~recoveringF
                    & faliveF
                )
                entering = stalled & ~in_boF
                if entering.any():
                    for k in np.nonzero(entering)[0]:
                        kk = int(k)
                        i = fast_idx[kk]
                        lane = lanes[i]
                        tel = lane.tel
                        in_boF[kk] = True
                        lane.browned_out = True
                        bocountF[kk] += 1
                        if lane.brownout_time is None:
                            lane.brownout_time = t
                        lane.events.append(("brownout", t))
                        tel.count("brownout.count")
                        tel.event(
                            "brownout", t, track="engine",
                            node_v=float(vF[kk]),
                        )
                        if cfg.stop_on_brownout:
                            if step % cfg.record_every == 0:
                                col = step // cfg.record_every
                                rec_t[i, col] = t
                                rec_vnode[i, col] = vF[kk]
                                rec_vproc[i, col] = v_procF[kk]
                                rec_f[i, col] = 0.0
                                rec_ppv[i, col] = ppvF[kk]
                                rec_pproc[i, col] = 0.0
                                rec_pdraw[i, col] = 0.0
                                rec_irr[i, col] = irrF[kk]
                                rec_mode[i, col] = M_HALT
                            sync(kk)
                            finish(i, step, t)
                            faliveF[kk] = False
                            any_died = True
                        elif cfg.recover_from_brownout:
                            recoveringF[kk] = True
                            if lane.outage_started_s is None:
                                tel.begin_span(
                                    "brownout.outage", t, track="engine"
                                )
                                lane.outage_started_s = t
                            v_procF[kk] = 0.0
                            fF[kk] = 0.0
                            p_procF[kk] = 0.0
                            p_drawF[kk] = 0.0
                            modeF[kk] = M_HALT
                            prev_vprocF[kk] = 0.0
                in_boF[(fF > 0.0) & faliveF] = False

                if step % cfg.record_every == 0:
                    if timer is not None:
                        t_mark = timer.add("control", t_mark)
                    col = step // cfg.record_every
                    if any_died:
                        sel = np.nonzero(faliveF)[0]
                        rows = fidx[sel]
                    else:
                        sel = posF_alive
                        rows = fidx_alive
                    rec_t[rows, col] = t
                    rec_vnode[rows, col] = vF[sel]
                    rec_vproc[rows, col] = v_procF[sel]
                    rec_f[rows, col] = fF[sel]
                    rec_ppv[rows, col] = ppvF[sel]
                    rec_pproc[rows, col] = p_procF[sel]
                    rec_pdraw[rows, col] = p_drawF[sel]
                    rec_irr[rows, col] = irrF[sel]
                    rec_mode[rows, col] = modeF[sel]
                    if timer is not None:
                        t_mark = timer.add("record", t_mark)

                if step < steps:
                    # Cycle bookkeeping and completion detection.
                    updatable = faliveF.copy()
                    new_cyclesF = cyclesF + fF * dt
                    completing = (
                        faliveF
                        & has_targetF
                        & ~completedF
                        & (new_cyclesF >= targetF)
                    )
                    if completing.any():
                        for k in np.nonzero(completing)[0]:
                            kk = int(k)
                            i = fast_idx[kk]
                            lane = lanes[i]
                            completedF[kk] = True
                            lane.completed = True
                            target = targets[i]
                            f_py = float(fF[kk])
                            if f_py > 0.0:
                                crossed_t = (
                                    t + (target - float(cyclesF[kk])) / f_py
                                )
                            else:
                                crossed_t = t
                            lane.completion_time = crossed_t
                            lane.events.append(("completed", crossed_t))
                            lane.tel.event(
                                "workload.completed", crossed_t,
                                track="engine", cycles=float(target),
                            )
                            if cfg.stop_on_completion:
                                sync(kk).cycles = float(new_cyclesF[kk])
                                finish(i, step, t)
                                faliveF[kk] = False
                                any_died = True
                    cyclesF = np.where(updatable, new_cyclesF, cyclesF)

                    idle = faliveF & (
                        recoveringF | (in_boF & (fF == 0.0))
                    )
                    downtimeF = np.where(idle, downtimeF + dt, downtimeF)

                    # Node demand; the capacitor integration is batched.
                    demandF = p_drawF + comp_powF
                    ok_v = vF > 1e-6
                    i_drawF = np.where(
                        ok_v, demandF / np.where(ok_v, vF, 1.0), 0.0
                    )
                    collapsedF = np.where(faliveF & ok_v, False, collapsedF)
                    collapsing = (
                        faliveF & ~ok_v & (demandF > 0.0) & ~collapsedF
                    )
                    if collapsing.any():
                        for k in np.nonzero(collapsing)[0]:
                            kk = int(k)
                            lane = lanes[fast_idx[kk]]
                            collapsedF[kk] = True
                            lane.events.append(("node_collapse", t))
                            lane.tel.event("node.collapse", t, track="engine")
                    # Dead lanes get don't-care values; the capacitor
                    # update never applies them (live mask).
                    i_net_arr[fidx] = ipvF - i_drawF
                if timer is not None:
                    t_mark = timer.add("control", t_mark)

            # ---- scalar fallback lanes: the scalar engine's step ----
            for i in slow_alive:
                v_node = v_list[i]
                pylist = irr_pylists[i]
                irr = pylist[step] if pylist is not None else traces[i](t)
                if i_pv_list is not None:
                    i_pv = i_pv_list[i]
                    i_draw = lanes[i].step(step, t, v_node, irr, v_node * i_pv)
                else:
                    solve = scalar_solves[i]
                    if solve is not None:
                        i_pv = solve(v_node, irr)
                        i_draw = lanes[i].step(
                            step, t, v_node, irr, v_node * i_pv
                        )
                    else:
                        cell = nodes[i].cell
                        i_draw = lanes[i].step(
                            step, t, v_node, irr,
                            float(cell.power(v_node, irr)),
                        )
                        if i_draw is not None:
                            i_pv = float(cell.current(v_node, irr))
                if i_draw is None:
                    finish(i, step, t)
                    any_died = True
                    continue
                i_net_arr[i] = i_pv - i_draw

            if timer is not None and slow_alive:
                t_mark = timer.add("control", t_mark)

            if step == steps:
                break
            if any_died:
                slow_alive = [i for i in slow_alive if live[i]]
                if nf:
                    posF_alive = np.nonzero(faliveF)[0]
                    fidx_alive = fidx[posF_alive]
                all_alive = False
                if not live.any():
                    break

            # Masked capacitor update across all live lanes, preserving
            # the scalar expression order (leak subtraction only when
            # leaking and charged; left-associative V + (I*dt)/C; clamp
            # to [0, rating]).
            adj = np.where(
                (cap_leak > 0.0) & (v > 0.0), i_net_arr - cap_leak, i_net_arr
            )
            v_next = np.minimum(
                np.maximum(v + adj * dt / cap_c, 0.0), cap_vmax
            )
            if all_alive:
                if not np.all(np.isfinite(v_next)):
                    raise SimulationError(
                        f"node voltage became non-finite at t={t}"
                    )
                v = v_next
            else:
                if not np.all(np.isfinite(v_next[live])):
                    raise SimulationError(
                        f"node voltage became non-finite at t={t}"
                    )
                v[live] = v_next[live]
            if slow_alive:
                v_list = v.tolist()

            # Comparator observations feed the next step's views.
            for i in slow_alive:
                lanes[i].observe(t + dt, v_list[i])
            if nf:
                v_prevF = vF
                if pend_rows:
                    for kk in pend_rows:
                        lanes[fast_idx[kk]].pending_events = ()
                    pendF[pend_rows] = False
                    pend_rows = []
                if lens is not None or noisy_banks:
                    vF_next = v[fidx]
                    if lens is not None:
                        for row in lens.rows_to_observe(vF_next, faliveF):
                            rr = int(row)
                            kk = int(lens.positions[rr])
                            i = fast_idx[kk]
                            bank = comparators[i]
                            assert bank is not None
                            new_events = bank.observe(
                                t + dt, float(vF_next[kk])
                            )
                            lens.refresh(rr)
                            if new_events:
                                lanes[i].pending_events = tuple(new_events)
                                pendF[kk] = True
                                pend_rows.append(kk)
                    for kk, i, bank in noisy_banks:
                        if faliveF[kk]:
                            new_events = bank.observe(
                                t + dt, float(vF_next[kk])
                            )
                            if new_events:
                                lanes[i].pending_events = tuple(new_events)
                                pendF[kk] = True
                                pend_rows.append(kk)
            if timer is not None:
                t_mark = timer.add("capacitor", t_mark)

            t += dt

        # Lanes that reached the end of the grid finish here, exactly
        # like the scalar engine's after-loop block; fast lanes sync
        # their array state first (dead ones synced at death).
        for kk in range(nf):
            if live[fast_idx[kk]]:
                sync(kk)
        for i in range(batch):
            if live[i]:
                finish(i, step, t)

        # Final capacitor write-back (the scalar engine mutates its
        # capacitor in place throughout; the fleet defers to the end).
        for i in range(batch):
            nodes[i].capacitor.charge(float(v[i]))

        self.state = _fleet_state(
            t, step, v, live, lanes, families, cap_c, cap_esr, cap_vmax,
            cap_leak, nodes,
        )
        return cast("List[SimulationResult]", results)


def _fleet_state(
    t: float,
    step: int,
    v: np.ndarray,
    live: np.ndarray,
    lanes: Sequence[Lane],
    families: "Sequence[str | None]",
    cap_c: np.ndarray,
    cap_esr: np.ndarray,
    cap_vmax: np.ndarray,
    cap_leak: np.ndarray,
    nodes: Sequence[FleetNode],
) -> FleetState:
    """The end-of-run snapshot, read off the lanes."""
    mode_codes = SimulationResult.MODE_CODES

    def column(attr: str, dtype: Any = np.float64) -> np.ndarray:
        return np.array([getattr(lane, attr) for lane in lanes], dtype=dtype)

    def optional(attr: str) -> np.ndarray:
        return np.array(
            [
                float("nan") if value is None else value
                for value in (getattr(lane, attr) for lane in lanes)
            ]
        )

    def modes(attr: str) -> np.ndarray:
        return np.array(
            [
                NO_MODE if name is None else mode_codes[name]
                for name in (getattr(lane, attr) for lane in lanes)
            ],
            dtype=np.int8,
        )

    return FleetState(
        time_s=t,
        step=step,
        node_voltage_v=v.copy(),
        processor_voltage_v=column("prev_v_proc"),
        cycles_done=column("cycles"),
        prev_setpoint_v=column("prev_setpoint_v"),
        lockout_until_s=column("lockout_until"),
        downtime_s=column("downtime_s"),
        completion_time_s=optional("completion_time"),
        brownout_time_s=optional("brownout_time"),
        outage_started_s=optional("outage_started_s"),
        end_time_s=column("end_time_s"),
        prev_mode=modes("prev_mode"),
        telemetry_mode=modes("telemetry_mode"),
        transition_count=column("transition_count", np.int64),
        brownout_count=column("brownout_count", np.int64),
        end_step=column("end_step", np.int64),
        completed=column("completed", bool),
        browned_out=column("browned_out", bool),
        recovering=column("recovering", bool),
        in_brownout=column("in_brownout", bool),
        node_collapsed=column("node_collapsed", bool),
        live=live.copy(),
        control_family=np.array(
            [
                FALLBACK_FAMILY if fam is None else FAMILY_CODES[fam]
                for fam in families
            ],
            dtype=np.int8,
        ),
        capacitance_f=cap_c.copy(),
        esr_ohm=cap_esr.copy(),
        max_voltage_v=cap_vmax.copy(),
        leakage_current_a=cap_leak.copy(),
        seeds=np.array(
            [-1 if node.seed is None else node.seed for node in nodes],
            dtype=np.int64,
        ),
    )

"""The vectorized holistic optimizer against a frozen per-point sweep.

:class:`~repro.core.operating_point.OperatingPointOptimizer` evaluates
its voltage grid as arrays.  The reference below is a frozen copy of
the earlier per-point loops -- one scalar PV, regulator and processor
query per grid voltage, the strict ``>`` tie-break, and the earlier
scalar ``frequency_for_power`` and switched-capacitor
``max_output_power`` bodies -- and every resolved point must match it
exactly (``repr`` of the :class:`OperatingPoint`), as must the type of
every raised error.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operating_point import OperatingPoint, OperatingPointOptimizer
from repro.core.system import EnergyHarvestingSoC, paper_system
from repro.errors import InfeasibleOperatingPointError, OperatingRangeError
from repro.harvesters import wearable_teg
from repro.processor.energy import ProcessorModel, paper_processor
from repro.regulators.buck import paper_buck
from repro.regulators.bypass import BypassPath
from repro.regulators.base import Regulator
from repro.regulators.switched_capacitor import (
    SwitchedCapacitorRegulator,
    paper_switched_capacitor,
)

#: 10 mSun steps from darkness to beyond full sun.
IRRADIANCES = np.linspace(0.0, 1.2, 121).tolist()
DERATINGS = (1.0, 0.93, 0.8, 0.61)


# -- the frozen reference ------------------------------------------------------


def _ref_frequency_for_power(
    processor: ProcessorModel, voltage_v: float, power_budget_w: float
) -> float:
    processor.check_voltage(voltage_v)
    if power_budget_w < 0.0:
        raise OperatingRangeError(f"power budget must be >= 0, got {power_budget_w}")
    leak = float(processor.leakage.power(voltage_v))
    headroom = power_budget_w - leak
    if headroom <= 0.0:
        return 0.0
    f_budget = headroom / float(processor.dynamic.energy_per_cycle(voltage_v))
    return min(f_budget, float(processor.max_frequency(voltage_v)))


def _ref_max_output_power(
    regulator: Regulator, v_out: float, p_in_available: float, v_in: float
) -> float:
    if not isinstance(regulator, SwitchedCapacitorRegulator):
        return regulator.max_output_power(v_out, p_in_available, v_in=v_in)
    if p_in_available < 0.0:
        raise OperatingRangeError("available power must be >= 0")
    v_in_resolved = regulator._resolve_input(v_in)
    regulator.check_output_voltage(v_out)
    budget = regulator.derate_available_power(
        p_in_available
    ) - regulator.fixed.power(v_in_resolved)
    if budget <= 0.0:
        return 0.0
    best = 0.0
    for ratio in regulator.ratios:
        vnl = regulator.no_load_voltage(ratio, v_in_resolved)
        if vnl <= v_out:
            continue
        i_power = budget / (vnl + regulator.switching.drop_v)
        i_cap = regulator.current_limit(ratio, v_out, v_in_resolved)
        best = max(best, v_out * min(i_power, i_cap))
    return best


def _ref_unregulated(opt: OperatingPointOptimizer, irradiance: float) -> OperatingPoint:
    processor = opt.system.processor
    cell = opt.system.cell
    voc = cell.open_circuit_voltage(irradiance)
    if voc <= processor.min_operating_v:
        raise InfeasibleOperatingPointError("voc below processor minimum")
    high = min(voc, processor.max_operating_v)
    best = None
    for v in np.linspace(processor.min_operating_v, high, opt.grid_points):
        p_pv = float(cell.power(v, irradiance))
        if p_pv <= 0.0:
            continue
        f = _ref_frequency_for_power(processor, float(v), p_pv)
        if f <= 0.0:
            continue
        p_proc = float(processor.power(float(v), f))
        if best is None or f > best.frequency_hz:
            best = OperatingPoint(
                processor_voltage_v=float(v),
                frequency_hz=f,
                delivered_power_w=p_proc,
                extracted_power_w=p_proc,
                node_voltage_v=float(v),
                regulator_name="bypass",
                bypassed=True,
            )
    if best is None:
        raise InfeasibleOperatingPointError("cell cannot sustain the processor")
    return best


def _ref_regulated(
    opt: OperatingPointOptimizer, regulator_name: str, irradiance: float
) -> OperatingPoint:
    regulator = opt.system.regulator(regulator_name)
    processor = opt.system.processor
    mpp = opt.system.mpp(irradiance)
    if mpp.power_w <= 0.0:
        raise InfeasibleOperatingPointError("no harvestable power")
    low = max(processor.min_operating_v, regulator.min_output_v)
    high = min(processor.max_operating_v, regulator.max_output_v, mpp.voltage_v)
    if low >= high:
        raise InfeasibleOperatingPointError("no voltage overlap")
    best = None
    for v in np.linspace(low, high, opt.grid_points):
        try:
            available = _ref_max_output_power(
                regulator, float(v), mpp.power_w, mpp.voltage_v
            )
        except OperatingRangeError:
            continue
        if available <= 0.0:
            continue
        f = _ref_frequency_for_power(processor, float(v), available)
        if f <= 0.0:
            continue
        p_proc = float(processor.power(float(v), f))
        try:
            extracted = regulator.input_power(float(v), p_proc, v_in=mpp.voltage_v)
        except OperatingRangeError:
            continue
        if best is None or f > best.frequency_hz:
            best = OperatingPoint(
                processor_voltage_v=float(v),
                frequency_hz=f,
                delivered_power_w=p_proc,
                extracted_power_w=extracted,
                node_voltage_v=mpp.voltage_v,
                regulator_name=regulator_name,
                bypassed=False,
            )
    if best is None:
        raise InfeasibleOperatingPointError("no feasible operating point")
    return best


def _ref_best(
    regulated: "OperatingPoint | Exception", unregulated: "OperatingPoint | Exception"
) -> OperatingPoint:
    """The holistic choice from the two reference solves' outcomes."""
    candidates = []
    for outcome in (regulated, unregulated):
        if isinstance(outcome, InfeasibleOperatingPointError):
            continue
        if isinstance(outcome, Exception):
            raise outcome
        candidates.append(outcome)
    if not candidates:
        raise InfeasibleOperatingPointError("no operating point at all")
    return max(candidates, key=lambda p: p.frequency_hz)


# -- comparison ----------------------------------------------------------------


def _run(solve: Callable[[], OperatingPoint]) -> "OperatingPoint | Exception":
    try:
        return solve()
    except Exception as exc:  # the error *type* is part of the contract
        return exc


def _key(outcome: "OperatingPoint | Exception") -> str:
    if isinstance(outcome, Exception):
        return type(outcome).__name__
    return repr(outcome)


def _compare(
    opt: OperatingPointOptimizer,
    irradiance: float,
    names: "tuple[str, ...] | None" = None,
) -> None:
    """Every solve at one irradiance (for every regulator unless
    ``names`` are given) equals its reference outcome."""
    ref_unregulated = _run(lambda: _ref_unregulated(opt, irradiance))
    got = _run(lambda: opt.unregulated_point(irradiance))
    assert _key(got) == _key(ref_unregulated), irradiance
    for name in names or sorted(opt.system.regulators):
        ref_regulated = _run(lambda: _ref_regulated(opt, name, irradiance))
        got = _run(lambda: opt.regulated_point(name, irradiance))
        assert _key(got) == _key(ref_regulated), (name, irradiance)
        ref_best = _run(lambda: _ref_best(ref_regulated, ref_unregulated))
        got = _run(lambda: opt.best_point(name, irradiance))
        assert _key(got) == _key(ref_best), (name, irradiance)


def _derated(system: EnergyHarvestingSoC, derating: float) -> EnergyHarvestingSoC:
    for regulator in system.regulators.values():
        regulator.set_efficiency_derating(derating)
    return system


@pytest.mark.parametrize("derating", DERATINGS)
def test_paper_system_matches_frozen_sweep(derating: float) -> None:
    opt = OperatingPointOptimizer(_derated(paper_system(), derating))
    for irradiance in IRRADIANCES:
        _compare(opt, irradiance)


def test_irradiance_grid_spans_the_bypass_crossover() -> None:
    """Fig. 7(a): the pristine SC point wins in strong light, bypass in
    dim light, and the grid above covers both sides."""
    opt = OperatingPointOptimizer(paper_system())
    bypassed = set()
    for irradiance in IRRADIANCES:
        try:
            bypassed.add(opt.best_point("sc", irradiance).bypassed)
        except InfeasibleOperatingPointError:
            continue
    assert bypassed == {True, False}


def test_thermoelectric_system_matches_frozen_sweep() -> None:
    system = EnergyHarvestingSoC(
        cell=wearable_teg(),  # type: ignore[arg-type]
        processor=paper_processor(),
        regulators={
            "sc": paper_switched_capacitor(),
            "buck": paper_buck(),
            "bypass": BypassPath(),
        },
        comparator_thresholds_v=(0.70, 0.60, 0.50),
    )
    opt = OperatingPointOptimizer(system)
    for irradiance in IRRADIANCES[::2]:
        _compare(opt, irradiance)


class _RejectingSc(SwitchedCapacitorRegulator):
    """An SC converter whose ``input_power`` refuses a voltage window,
    so the optimizer must fall back past its fastest candidates."""

    def __init__(self, reject_low_v: float, reject_high_v: float) -> None:
        super().__init__(name="rejecting")
        self.reject = (reject_low_v, reject_high_v)

    def input_power(
        self, v_out: float, p_out: float, v_in: "float | None" = None
    ) -> float:
        if self.reject[0] <= v_out <= self.reject[1]:
            raise OperatingRangeError("rejected window")
        return super().input_power(v_out, p_out, v_in)


@pytest.mark.parametrize("window", [(0.5, 0.62), (0.3, 1.0), (0.0, 2.0)])
def test_input_power_rejections_fall_back_like_the_sweep(
    window: "tuple[float, float]",
) -> None:
    system = paper_system()
    system.regulators["rejecting"] = _RejectingSc(*window)
    opt = OperatingPointOptimizer(system)
    for irradiance in IRRADIANCES[::2]:
        _compare(opt, irradiance, ("rejecting",))


@given(
    irradiance=st.floats(min_value=0.0, max_value=1.3),
    derating=st.floats(min_value=0.5, max_value=1.0),
    grid_points=st.integers(min_value=16, max_value=320),
)
@settings(max_examples=40, deadline=None)
def test_property_matches_frozen_sweep(
    irradiance: float, derating: float, grid_points: int
) -> None:
    opt = OperatingPointOptimizer(
        _derated(paper_system(), derating), grid_points=grid_points
    )
    _compare(opt, irradiance)

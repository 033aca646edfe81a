"""NaN and infinite inputs fail at the public boundary.

Every check below is written so NaN fails it (``not (0 <= x < inf)``),
and raises :class:`~repro.errors.ModelParameterError` before any solver
runs -- previously a NaN irradiance passed the ``< 0`` checks and died
inside the Newton iteration as a ``ConvergenceError``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.operating_point import OperatingPointOptimizer
from repro.core.system import paper_system
from repro.errors import ModelParameterError
from repro.fleet.engine import FleetNode, FleetSimulator
from repro.fleet.pv import CellParams, batched_current
from repro.harvesters import wearable_teg
from repro.pv.cell import kxob22_cell
from repro.pv.traces import IrradianceTrace, constant_trace
from repro.sim.dvfs import FixedOperatingPointController
from repro.sim.engine import SimulationConfig, TransientSimulator

BAD = [float("nan"), float("inf"), -float("inf"), -0.1]
BAD_IDS = ["nan", "inf", "-inf", "negative"]
CELL = kxob22_cell()


@pytest.mark.parametrize("value", BAD, ids=BAD_IDS)
def test_photo_current(value: float) -> None:
    with pytest.raises(ModelParameterError, match="irradiance"):
        CELL.photo_current(value)
    with pytest.raises(ModelParameterError, match="irradiance"):
        CELL.current(0.5, value)
    with pytest.raises(ModelParameterError, match="irradiance"):
        CELL.open_circuit_voltage(value)


@pytest.mark.parametrize("value", BAD, ids=BAD_IDS)
def test_batched_irradiance(value: float) -> None:
    with pytest.raises(ModelParameterError, match="irradiance"):
        CELL.current(np.array([0.4, 0.5]), value)
    params = CellParams.from_cells([CELL, CELL])
    assert params is not None
    with pytest.raises(ModelParameterError, match="irradiance"):
        batched_current(
            params,
            np.array([0.4, 0.5]),
            np.array([1.0, value]),
            np.ones(2, dtype=bool),
        )


def test_batched_irradiance_ignores_dead_lanes() -> None:
    params = CellParams.from_cells([CELL, CELL])
    assert params is not None
    out = batched_current(
        params,
        np.array([0.4, 0.5]),
        np.array([1.0, float("nan")]),
        np.array([True, False]),
    )
    assert out.tolist() == [CELL.current_scalar(0.4, 1.0), 0.0]


@pytest.mark.parametrize("value", BAD, ids=BAD_IDS)
def test_irradiance_trace_values(value: float) -> None:
    with pytest.raises(ModelParameterError, match="finite and non-negative"):
        IrradianceTrace(times_s=(0.0, 1e-3), values=(1.0, value))


@pytest.mark.parametrize("value", BAD, ids=BAD_IDS)
def test_thermoelectric_open_circuit_voltage(value: float) -> None:
    teg = wearable_teg()
    with pytest.raises(ModelParameterError, match="intensity"):
        teg.open_circuit_voltage(value)
    with pytest.raises(ModelParameterError, match="intensity"):
        teg.current(np.array([0.3, 0.6]), value)


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), 0.0, -1e-6], ids=["nan", "inf", "0", "neg"]
)
def test_simulation_time_step(value: float) -> None:
    with pytest.raises(ModelParameterError, match="time step"):
        SimulationConfig(time_step_s=value)


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_recovery_voltage(value: float) -> None:
    with pytest.raises(ModelParameterError, match="recovery voltage"):
        SimulationConfig(
            recovery_voltage_v=value,
            stop_on_brownout=False,
            recover_from_brownout=True,
        )


def _run_scalar(duration_s: float) -> None:
    system = paper_system()
    TransientSimulator(
        cell=system.cell,
        node_capacitor=system.new_node_capacitor(1.2),
        processor=system.processor,
        regulator=system.regulator("sc"),
        controller=FixedOperatingPointController(0.8, 400e6),
    ).run(constant_trace(1.0, 1e-3), duration_s=duration_s)


def _run_fleet(duration_s: float) -> None:
    system = paper_system()
    node = FleetNode(
        cell=system.cell,
        capacitor=system.new_node_capacitor(1.2),
        processor=system.processor,
        regulator=system.regulator("sc"),
        controller=FixedOperatingPointController(0.8, 400e6),
    )
    FleetSimulator([node]).run([constant_trace(1.0, 1e-3)], duration_s=duration_s)


@pytest.mark.parametrize("engine", [_run_scalar, _run_fleet], ids=["scalar", "fleet"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_run_duration(engine, value: float) -> None:
    with pytest.raises(ModelParameterError, match="duration"):
        engine(value)


@pytest.mark.parametrize("value", BAD, ids=BAD_IDS)
def test_optimizer_rejects_bad_irradiance(value: float) -> None:
    optimizer = OperatingPointOptimizer(paper_system())
    for regulator in ("sc", "buck", "ldo", "bypass"):
        with pytest.raises(ModelParameterError, match="irradiance"):
            optimizer.best_point(regulator, value)
    with pytest.raises(ModelParameterError, match="irradiance"):
        optimizer.unregulated_point(value)

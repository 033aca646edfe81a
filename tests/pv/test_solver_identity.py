"""Structural identity of the PV array solver with the scalar solver.

:meth:`SingleDiodeCell.current` on an array runs
:func:`repro.pv.cell.solve_current`, which freezes each element when its
own Newton step converges -- exactly when
:meth:`SingleDiodeCell.current_scalar` returns.  So every element must
equal its scalar solve bit for bit, on any grid.

The earlier array solver iterated until the *largest* step converged,
which moves the last bits of early-converged elements.  The MPP search
and the open-circuit bisection consume the array path, so they are
compared here against a frozen copy of that global-convergence solver:
their results must not have moved.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConvergenceError
from repro.pv.cell import SingleDiodeCell, kxob22_cell
from repro.pv.mpp import find_mpp
from tests.perf.test_scalar_fastpath import CELLS

CELL = kxob22_cell()
CELL_IDS = ["kxob22", "hot", "no-rs", "lossy"]

IRRADIANCES = np.linspace(0.0, 1.2, 241).tolist()


def _global_newton_current(
    cell: SingleDiodeCell, voltage: "float | np.ndarray", irradiance: float
) -> "float | np.ndarray":
    """Frozen copy of the earlier array solver: one Newton loop over
    the whole array that stops when the largest step converges."""
    voltage_arr = np.atleast_1d(np.asarray(voltage, dtype=float))
    iph = cell.photo_current(irradiance)
    scale = cell.diode_scale_v
    exponent = np.clip(voltage_arr / scale, -60.0, 60.0)
    ideal = cell.saturation_current_a * (np.exp(exponent) - 1.0)
    current_arr = np.clip(iph - ideal, -iph - 1e-3, iph)
    if cell.series_resistance_ohm == 0.0:
        result = iph - ideal - voltage_arr / cell.shunt_resistance_ohm
    else:
        rs = cell.series_resistance_ohm
        rsh = cell.shunt_resistance_ohm
        for _ in range(100):
            diode_v = voltage_arr + current_arr * rs
            exp_term = np.exp(np.clip(diode_v / scale, -60.0, 60.0))
            f = (
                iph
                - cell.saturation_current_a * (exp_term - 1.0)
                - diode_v / rsh
                - current_arr
            )
            df = -cell.saturation_current_a * exp_term * rs / scale - rs / rsh - 1.0
            step = f / df
            current_arr = current_arr - step
            if np.max(np.abs(step)) < 1e-12:
                break
        else:
            raise ConvergenceError("frozen global-convergence solver diverged")
        result = current_arr
    if np.isscalar(voltage) or getattr(voltage, "ndim", 1) == 0:
        return float(result[0])
    return result


class _GlobalNewtonCell(SingleDiodeCell):
    """A cell whose every current query goes to the frozen solver, so
    its inherited ``power``/``open_circuit_voltage`` (and ``find_mpp``
    over it) are the pre-change computations."""

    def current(
        self, voltage: "float | np.ndarray", irradiance: float = 1.0
    ) -> "float | np.ndarray":
        return _global_newton_current(self, voltage, irradiance)


def _frozen(cell: SingleDiodeCell) -> _GlobalNewtonCell:
    return _GlobalNewtonCell(
        photo_current_full_sun_a=cell.photo_current_full_sun_a,
        saturation_current_a=cell.saturation_current_a,
        ideality_factor=cell.ideality_factor,
        series_cells=cell.series_cells,
        series_resistance_ohm=cell.series_resistance_ohm,
        shunt_resistance_ohm=cell.shunt_resistance_ohm,
        temperature_k=cell.temperature_k,
    )


@pytest.mark.parametrize("cell", CELLS, ids=CELL_IDS)
def test_array_equals_per_element_scalar_bitwise(cell: SingleDiodeCell) -> None:
    voltages = np.linspace(-0.2, 2.0, 551)
    for irradiance in (0.0, 0.05, 0.3, 1.0, 1.2):
        array = cell.current(voltages, irradiance)
        scalar = [cell.current_scalar(v, irradiance) for v in voltages.tolist()]
        assert np.asarray(array).tolist() == scalar, irradiance


@pytest.mark.parametrize("cell", CELLS, ids=CELL_IDS)
def test_optimizer_grid_equals_scalar_bitwise(cell: SingleDiodeCell) -> None:
    """The holistic optimizer's grid shape: 240 points up to Voc."""
    for irradiance in IRRADIANCES[1::8]:
        voc = cell.open_circuit_voltage(irradiance)
        grid = np.linspace(0.15, max(voc, 0.2), 240)
        array = np.asarray(cell.power(grid, irradiance)).tolist()
        scalar = [v * cell.current_scalar(v, irradiance) for v in grid.tolist()]
        assert array == scalar, irradiance


def test_array_shape_and_type_follow_the_input() -> None:
    grid = np.linspace(0.0, 1.5, 12).reshape(3, 4)
    out = CELL.current(grid, 0.7)
    assert isinstance(out, np.ndarray) and out.shape == (3, 4)
    assert out.ravel().tolist() == [
        CELL.current_scalar(v, 0.7) for v in grid.ravel().tolist()
    ]
    assert isinstance(CELL.current(np.float64(0.4), 0.7), float)
    assert isinstance(CELL.current(np.array(0.4), 0.7), float)
    assert CELL.current(np.zeros(0), 0.7).shape == (0,)


@pytest.mark.parametrize("cell", CELLS, ids=CELL_IDS)
def test_voc_and_mpp_equal_the_global_convergence_solver(
    cell: SingleDiodeCell,
) -> None:
    frozen = _frozen(cell)
    for irradiance in IRRADIANCES:
        assert cell.open_circuit_voltage(irradiance) == (
            frozen.open_circuit_voltage(irradiance)
        ), irradiance
        assert repr(find_mpp(cell, irradiance)) == repr(
            find_mpp(frozen, irradiance)
        ), irradiance

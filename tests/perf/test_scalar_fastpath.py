"""Scalar Newton fast path: bit-identity and warm-start tolerance.

The engine's default path rests on one claim: the cold-started scalar
solver returns the *same double* as the historical array solver, for
every voltage and irradiance.  That claim is asserted bit-for-bit here
(dense grids plus a hypothesis sweep over the operating domain).

Warm starts are a different story: the floating-point Newton map has
several attracting fixed points within ~1e-16 A of the root, so a
warm-started solve may land on a different last bit than a cold one.
The documented contract (docs/performance.md) is agreement within
``WARM_START_TOLERANCE_A``; that bound is property-tested too, along
with the determinism of the warm start itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pv.cell import SingleDiodeCell, kxob22_cell

CELL = kxob22_cell()

#: Cell variants covering the solver's branches: the paper cell, a hot
#: derated copy, a zero-series-resistance cell (closed-form branch) and
#: a lossy cell with a hard knee.
CELLS = (
    CELL,
    CELL.at_temperature(330.0),
    SingleDiodeCell(
        photo_current_full_sun_a=5e-3,
        saturation_current_a=1e-8,
        ideality_factor=1.2,
        series_cells=2,
        series_resistance_ohm=0.0,
        shunt_resistance_ohm=3000.0,
    ),
    SingleDiodeCell(
        photo_current_full_sun_a=20e-3,
        saturation_current_a=5e-8,
        series_resistance_ohm=4.0,
        shunt_resistance_ohm=1000.0,
    ),
)

#: Documented warm-start divergence bound (measured maximum is ~1e-16 A;
#: the bound leaves headroom of the solver tolerance scale).
WARM_START_TOLERANCE_A = 5e-12


class TestColdStartBitIdentity:
    @pytest.mark.parametrize(
        "cell", CELLS, ids=["kxob22", "hot", "no-rs", "lossy"]
    )
    def test_dense_grid_matches_array_path_bitwise(self, cell):
        """Per-point calls, matching the engine's pre-PR call shape.

        (Array solves freeze each element at its own convergence, so
        they equal these per-point solves too; that is asserted on
        dense grids in ``tests/pv/test_solver_identity.py``.)
        """
        voltages = np.linspace(-0.2, 2.0, 551)
        for irr in (0.0, 0.05, 0.3, 1.0, 1.2):
            for v in voltages.tolist():
                assert cell.current_scalar(v, irr) == float(
                    cell.current(v, irr)
                ), (v, irr)

    @given(
        v=st.floats(min_value=0.0, max_value=1.8),
        irr=st.floats(min_value=0.0, max_value=1.25),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_cold_scalar_equals_array_bitwise(self, v, irr):
        assert CELL.current_scalar(v, irr) == float(CELL.current(v, irr))

    def test_power_derivation_is_bit_identical(self):
        """``v * current_scalar(v)`` equals the array ``power()`` double."""
        for v in np.linspace(0.0, 1.6, 97).tolist():
            for irr in (0.2, 1.0):
                derived = v * CELL.current_scalar(v, irr)
                assert derived == float(CELL.power(v, irr))


class TestWarmStart:
    @given(
        v=st.floats(min_value=0.0, max_value=1.7),
        irr=st.floats(min_value=0.01, max_value=1.25),
        dv=st.floats(min_value=-1e-4, max_value=1e-4),
        dirr=st.floats(min_value=-1e-3, max_value=1e-3),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_warm_start_within_documented_tolerance(
        self, v, irr, dv, dirr
    ):
        """A warm start from a neighbouring operating point (the
        engine's previous time step, had it warm-started) stays within
        the documented bound of the cold result, and is itself
        deterministic bit-for-bit."""
        neighbour_v = min(max(v + dv, 0.0), 1.8)
        neighbour_irr = max(irr + dirr, 0.0)
        guess = CELL.current_scalar(neighbour_v, neighbour_irr)
        cold = CELL.current_scalar(v, irr)
        warm = CELL.current_scalar(v, irr, guess=guess)
        assert warm == pytest.approx(cold, abs=WARM_START_TOLERANCE_A)
        assert warm == CELL.current_scalar(v, irr, guess=guess)

    def test_warm_start_from_exact_root_converges_immediately(self):
        cold = CELL.current_scalar(0.9, 1.0)
        warm = CELL.current_scalar(0.9, 1.0, guess=cold)
        assert warm == pytest.approx(cold, abs=WARM_START_TOLERANCE_A)

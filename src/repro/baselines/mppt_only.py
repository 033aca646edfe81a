"""Module-local MPPT: track the cell, ignore the converter.

The conventional regulated design: an MPPT loop parks the cell at its
maximum power point (module-local optimum #1) and the processor runs at
the regulator's datasheet sweet spot (module-local optimum #2, the
0.55 V anchor the paper characterises every converter at).  Neither
choice sees the other module's efficiency profile -- the gap the
paper's Section IV closes.
"""

from __future__ import annotations

from repro.core.operating_point import OperatingPoint
from repro.core.system import EnergyHarvestingSoC
from repro.errors import InfeasibleOperatingPointError
from repro.sim.dvfs import DvfsController, FixedOperatingPointController

#: The datasheet operating voltage of the paper's Figs. 3-5.
DATASHEET_SETPOINT_V = 0.55


class MpptOnlyBaseline:
    """MPPT plus a fixed datasheet operating voltage."""

    name = "mppt-only"

    def __init__(
        self,
        system: EnergyHarvestingSoC,
        regulator_name: str = "sc",
        setpoint_v: float = DATASHEET_SETPOINT_V,
    ) -> None:
        self.system = system
        self.regulator_name = regulator_name
        self.setpoint_v = setpoint_v

    def operating_point(self, irradiance: float) -> OperatingPoint:
        """Power-limited clock at the fixed datasheet voltage."""
        regulator = self.system.regulator(self.regulator_name)
        processor = self.system.processor
        mpp = self.system.mpp(irradiance)
        available = regulator.max_output_power(
            self.setpoint_v, mpp.power_w, v_in=mpp.voltage_v
        )
        frequency = float(processor.frequency_for_power(self.setpoint_v, available))
        if frequency <= 0.0:
            raise InfeasibleOperatingPointError(
                f"MPPT-only design stalls at irradiance {irradiance}: "
                f"leakage exceeds the delivered power at {self.setpoint_v} V"
            )
        delivered = float(processor.power(self.setpoint_v, frequency))
        extracted = regulator.input_power(
            self.setpoint_v, delivered, v_in=mpp.voltage_v
        )
        return OperatingPoint(
            processor_voltage_v=self.setpoint_v,
            frequency_hz=frequency,
            delivered_power_w=delivered,
            extracted_power_w=extracted,
            node_voltage_v=mpp.voltage_v,
            regulator_name=self.regulator_name,
            bypassed=False,
        )

    def controller(self, irradiance: float) -> DvfsController:
        """A simulator controller holding the datasheet point."""
        point = self.operating_point(irradiance)
        return FixedOperatingPointController(
            output_voltage_v=point.processor_voltage_v,
            frequency_hz=point.frequency_hz,
        )

"""Thermoelectric generator (TEG) model.

A TEG is electrically a Thevenin source: the Seebeck voltage
``Voc = S_total * dT`` behind an internal resistance, so

    I(V) = (Voc(intensity) - V) / R_internal

with ``intensity`` scaling the temperature gradient linearly.  The I-V
line makes the maximum power point exactly ``Voc / 2`` delivering
``Voc^2 / 4R`` -- a different curve *shape* than the photovoltaic
exponential, which is precisely why it exercises the holistic
machinery's generality: MPP fractions, bypass crossovers and tracking
all land at different voltages than with the solar cell, with zero
code changes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelParameterError


class ThermoelectricGenerator:
    """Seebeck source with internal resistance.

    Parameters
    ----------
    seebeck_v_per_k:
        Total module Seebeck coefficient (couples in series give tens
        of mV/K).
    reference_gradient_k:
        Temperature difference across the module at intensity 1.0.
    internal_resistance_ohm:
        Electrical resistance of the couple stack.
    """

    def __init__(
        self,
        seebeck_v_per_k: float,
        reference_gradient_k: float,
        internal_resistance_ohm: float,
    ) -> None:
        if seebeck_v_per_k <= 0.0:
            raise ModelParameterError(
                f"Seebeck coefficient must be positive, got {seebeck_v_per_k}"
            )
        if reference_gradient_k <= 0.0:
            raise ModelParameterError(
                f"reference gradient must be positive, got {reference_gradient_k}"
            )
        if internal_resistance_ohm <= 0.0:
            raise ModelParameterError(
                f"internal resistance must be positive, got "
                f"{internal_resistance_ohm}"
            )
        self.seebeck_v_per_k = seebeck_v_per_k
        self.reference_gradient_k = reference_gradient_k
        self.internal_resistance_ohm = internal_resistance_ohm

    # -- Harvester interface -----------------------------------------------------

    def open_circuit_voltage(self, irradiance: float = 1.0) -> float:
        """Seebeck voltage at the scaled gradient [V]."""
        if not (0.0 <= irradiance < np.inf):
            raise ModelParameterError(
                f"intensity must be finite and >= 0, got {irradiance}"
            )
        return (
            self.seebeck_v_per_k * self.reference_gradient_k * irradiance
        )

    def short_circuit_current(self, irradiance: float = 1.0) -> float:
        """``Voc / R`` [A]."""
        return self.open_circuit_voltage(irradiance) / self.internal_resistance_ohm

    def current(
        self, voltage: "float | np.ndarray", irradiance: float = 1.0
    ) -> "float | np.ndarray":
        """Linear I-V: ``(Voc - V) / R``; negative past Voc."""
        v = np.asarray(voltage, dtype=float)
        voc = self.open_circuit_voltage(irradiance)
        result = (voc - v) / self.internal_resistance_ohm
        if np.isscalar(voltage) or getattr(voltage, "ndim", 1) == 0:
            return float(result)
        return result

    def power(
        self, voltage: "float | np.ndarray", irradiance: float = 1.0
    ) -> "float | np.ndarray":
        """Delivered power ``V * I(V)`` [W]."""
        return np.asarray(voltage, dtype=float) * self.current(
            voltage, irradiance
        )

    # -- closed-form characteristics ------------------------------------------------

    def mpp_voltage(self, irradiance: float = 1.0) -> float:
        """The matched-load optimum: exactly half the Seebeck voltage."""
        return 0.5 * self.open_circuit_voltage(irradiance)

    def mpp_power(self, irradiance: float = 1.0) -> float:
        """``Voc^2 / 4R``."""
        voc = self.open_circuit_voltage(irradiance)
        return voc * voc / (4.0 * self.internal_resistance_ohm)


def wearable_teg() -> ThermoelectricGenerator:
    """A body-heat harvester sized like the paper's solar budget.

    A ~50 mV/K module across a ~30 K gradient behind ~72 ohm:
    Voc ~ 1.5 V (so the same processor/regulator voltage ranges apply)
    and an MPP of ~7.8 mW at 0.75 V -- between the solar cell's half-
    and full-sun conditions.
    """
    return ThermoelectricGenerator(
        seebeck_v_per_k=0.05,
        reference_gradient_k=30.0,
        internal_resistance_ohm=72.0,
    )

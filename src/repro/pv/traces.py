"""Irradiance-versus-time traces.

The paper's dynamic experiments (Figs. 8, 9(b), 11(b)) are driven by a
bench light that is dimmed mid-run.  We cannot reproduce the bench, so
this module generates the synthetic equivalents: step dimming, linear
ramps, passing-cloud profiles and seeded stochastic traces.  Every
generator is deterministic given its arguments (stochastic ones take an
explicit seed), so experiments replay exactly.

A trace is a piecewise-linear function of time built from breakpoints;
evaluation between breakpoints interpolates linearly, before the first
breakpoint holds the first value, and after the last holds the last
value.  This representation is exact for the step/ramp profiles the
paper uses and cheap to evaluate inside the transient simulator's inner
loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ModelParameterError


@dataclass(frozen=True)
class IrradianceTrace:
    """Piecewise-linear irradiance as a function of time.

    ``times_s`` must be strictly increasing; ``values`` are relative
    irradiances (1.0 = full sun) and must be non-negative.
    """

    times_s: Tuple[float, ...]
    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.times_s) != len(self.values):
            raise ModelParameterError(
                f"times ({len(self.times_s)}) and values ({len(self.values)}) "
                "must have the same length"
            )
        if not self.times_s:
            raise ModelParameterError("a trace needs at least one breakpoint")
        if any(b <= a for a, b in zip(self.times_s, self.times_s[1:])):
            raise ModelParameterError("trace times must be strictly increasing")
        if not all(0.0 <= v < np.inf for v in self.values):
            raise ModelParameterError(
                "irradiance values must be finite and non-negative"
            )

    def __call__(self, time_s: float) -> float:
        """Irradiance at ``time_s`` (scalar)."""
        return float(np.interp(time_s, self.times_s, self.values))

    def sample(self, times_s: np.ndarray) -> np.ndarray:
        """Vectorised evaluation over an array of times."""
        return np.interp(np.asarray(times_s, dtype=float), self.times_s, self.values)

    def step_samples(self, time_step_s: float, steps: int) -> np.ndarray:
        """Irradiance at the simulator's ``steps + 1`` forward-Euler instants.

        The engine's loop builds its time axis by repeated accumulation
        (``t_0 = 0``, ``t_k = t_{k-1} + dt``); ``np.cumsum`` accumulates
        the same way, and vectorised ``np.interp`` evaluates each element
        exactly like the scalar call, so this precomputation is
        bit-identical to evaluating ``self(t)`` inside the loop -- it
        just pays the interpolation cost once instead of once per step.
        """
        if time_step_s <= 0.0:
            raise ModelParameterError(
                f"time step must be positive, got {time_step_s}"
            )
        if steps < 0:
            raise ModelParameterError(f"steps must be >= 0, got {steps}")
        times = np.empty(steps + 1)
        times[0] = 0.0
        if steps:
            np.cumsum(np.full(steps, time_step_s), out=times[1:])
        return self.sample(times)

    @property
    def duration_s(self) -> float:
        """Time of the last breakpoint."""
        return self.times_s[-1]

    def mean(self, start_s: float = 0.0, end_s: "float | None" = None) -> float:
        """Time-averaged irradiance over ``[start_s, end_s]``.

        Computed exactly from the piecewise-linear segments (trapezoid
        integral), not by sampling.
        """
        if end_s is None:
            end_s = self.duration_s
        if end_s <= start_s:
            raise ModelParameterError(
                f"empty averaging window [{start_s}, {end_s}]"
            )
        interior = [t for t in self.times_s if start_s < t < end_s]
        knots = np.array([start_s, *interior, end_s])
        vals = self.sample(knots)
        return float(np.trapezoid(vals, knots) / (end_s - start_s))


def constant_trace(irradiance: float, duration_s: float = 1.0) -> IrradianceTrace:
    """Steady light at ``irradiance`` for ``duration_s`` seconds."""
    if duration_s <= 0.0:
        raise ModelParameterError(f"duration must be positive, got {duration_s}")
    return IrradianceTrace((0.0, duration_s), (irradiance, irradiance))


def step_trace(
    before: float,
    after: float,
    step_time_s: float,
    duration_s: float,
    transition_s: float = 1e-4,
) -> IrradianceTrace:
    """The paper's "dimmed light" event: a near-instant irradiance step.

    ``transition_s`` is the (short) linear transition width; a true
    discontinuity would make the simulator's event detection ambiguous,
    and a physical light dims over a finite time anyway.
    """
    if not 0.0 < step_time_s < duration_s:
        raise ModelParameterError(
            f"step time {step_time_s} must lie inside (0, {duration_s})"
        )
    if transition_s <= 0.0 or step_time_s + transition_s >= duration_s:
        raise ModelParameterError("transition must be positive and fit in the trace")
    return IrradianceTrace(
        (0.0, step_time_s, step_time_s + transition_s, duration_s),
        (before, before, after, after),
    )


def ramp_trace(
    start: float, end: float, duration_s: float
) -> IrradianceTrace:
    """Linear irradiance ramp, e.g. gradual sunset or a dimmer sweep."""
    if duration_s <= 0.0:
        raise ModelParameterError(f"duration must be positive, got {duration_s}")
    return IrradianceTrace((0.0, duration_s), (start, end))


def cloud_trace(
    base: float,
    dip: float,
    cloud_start_s: float,
    cloud_duration_s: float,
    total_duration_s: float,
    edge_s: float = 0.05,
) -> IrradianceTrace:
    """A passing cloud: dip from ``base`` to ``dip`` and recover.

    ``edge_s`` controls how fast the shadow edge sweeps the cell.
    """
    if dip > base:
        raise ModelParameterError("a cloud can only reduce irradiance")
    t0 = cloud_start_s
    t1 = t0 + edge_s
    t2 = t0 + cloud_duration_s
    t3 = t2 + edge_s
    if not 0.0 < t0 and t3 < total_duration_s:
        raise ModelParameterError("cloud must fit strictly inside the trace")
    if t1 >= t2:
        raise ModelParameterError("cloud duration must exceed its edge time")
    return IrradianceTrace(
        (0.0, t0, t1, t2, t3, total_duration_s),
        (base, base, dip, dip, base, base),
    )


def random_walk_trace(
    seed: int,
    duration_s: float,
    mean: float = 0.5,
    volatility: float = 0.1,
    breakpoints: int = 50,
    floor: float = 0.02,
    ceiling: float = 1.2,
) -> IrradianceTrace:
    """A seeded mean-reverting stochastic irradiance trace.

    Models the "energy volatility of the harvesting environment" the
    paper motivates with: an Ornstein-Uhlenbeck-style walk around
    ``mean``, clipped to ``[floor, ceiling]``.  Deterministic for a
    given seed.
    """
    if breakpoints < 2:
        raise ModelParameterError(f"need at least 2 breakpoints, got {breakpoints}")
    if duration_s <= 0.0:
        raise ModelParameterError(f"duration must be positive, got {duration_s}")
    if not 0.0 <= floor < ceiling:
        raise ModelParameterError(f"invalid bounds [{floor}, {ceiling}]")
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, duration_s, breakpoints)
    values = np.empty(breakpoints)
    values[0] = mean
    reversion = 0.3
    for i in range(1, breakpoints):
        drift = reversion * (mean - values[i - 1])
        values[i] = values[i - 1] + drift + volatility * rng.standard_normal()
    values = np.clip(values, floor, ceiling)
    return IrradianceTrace(tuple(times), tuple(values))


def flicker_trace(
    mean: float,
    depth: float,
    flicker_hz: float,
    duration_s: float,
    samples_per_cycle: int = 12,
) -> IrradianceTrace:
    """Indoor AC lighting flicker: a sinusoidal ripple on the mean.

    Mains-powered luminaires flicker at twice the line frequency
    (100/120 Hz) with modulation depths from a few percent (good LED
    drivers) to near-total (magnetic-ballast fluorescents).  An MPP
    tracker must *not* chase this ripple -- its settle-time filtering
    exists exactly for such disturbances -- which makes this trace the
    natural stress test for the Section VI-A controller.
    """
    if mean <= 0.0:
        raise ModelParameterError(f"mean must be positive, got {mean}")
    if not 0.0 <= depth <= 1.0:
        raise ModelParameterError(f"depth must be in [0, 1], got {depth}")
    if flicker_hz <= 0.0:
        raise ModelParameterError(
            f"flicker frequency must be positive, got {flicker_hz}"
        )
    if duration_s <= 0.0:
        raise ModelParameterError(f"duration must be positive, got {duration_s}")
    if samples_per_cycle < 6:
        raise ModelParameterError(
            f"need >= 6 samples per cycle, got {samples_per_cycle}"
        )
    points = max(int(duration_s * flicker_hz * samples_per_cycle), 2)
    times = np.linspace(0.0, duration_s, points)
    values = mean * (1.0 + depth * np.sin(2.0 * np.pi * flicker_hz * times))
    return IrradianceTrace(tuple(times), tuple(np.clip(values, 0.0, None)))


def diurnal_trace(
    duration_s: float,
    peak: float = 1.0,
    night_fraction: float = 0.3,
    cloud_seed: "int | None" = None,
    cloud_depth: float = 0.5,
    breakpoints: int = 96,
) -> IrradianceTrace:
    """One compressed day: night, a half-sine of sun, night again.

    ``duration_s`` maps the whole 24 h cycle onto a simulable span (a
    battery-less node's dynamics play out in milliseconds, so a
    "day" of tens of seconds exercises the same control paths).
    ``night_fraction`` is the share of the period spent dark at each
    end; an optional seeded cloud layer multiplies the daylight by
    ``1 - cloud_depth * noise``.
    """
    if duration_s <= 0.0:
        raise ModelParameterError(f"duration must be positive, got {duration_s}")
    if peak <= 0.0:
        raise ModelParameterError(f"peak must be positive, got {peak}")
    if not 0.0 <= night_fraction < 0.5:
        raise ModelParameterError(
            f"night fraction must be in [0, 0.5), got {night_fraction}"
        )
    if not 0.0 <= cloud_depth < 1.0:
        raise ModelParameterError(
            f"cloud depth must be in [0, 1), got {cloud_depth}"
        )
    if breakpoints < 8:
        raise ModelParameterError(
            f"need at least 8 breakpoints, got {breakpoints}"
        )
    times = np.linspace(0.0, duration_s, breakpoints)
    dawn = night_fraction * duration_s
    dusk = (1.0 - night_fraction) * duration_s
    values = np.zeros(breakpoints)
    daylight = (times > dawn) & (times < dusk)
    phase = (times[daylight] - dawn) / (dusk - dawn)
    values[daylight] = peak * np.sin(np.pi * phase)
    if cloud_seed is not None and cloud_depth > 0.0:
        rng = np.random.default_rng(cloud_seed)
        attenuation = 1.0 - cloud_depth * rng.random(daylight.sum())
        values[daylight] *= attenuation
    return IrradianceTrace(tuple(times), tuple(np.clip(values, 0.0, None)))


def scaled_trace(trace: IrradianceTrace, factor: float) -> IrradianceTrace:
    """Uniformly attenuate a trace: soiling, partial shading, a dirty
    diffuser over the bench light.

    ``factor`` is the transmitted fraction in (0, 1]; the breakpoints
    are preserved so the scaled trace is exact, not resampled.
    """
    if not 0.0 < factor <= 1.0:
        raise ModelParameterError(
            f"soiling/shading factor must be in (0, 1], got {factor}"
        )
    return IrradianceTrace(
        trace.times_s, tuple(v * factor for v in trace.values)
    )


def overlay_flicker(
    trace: IrradianceTrace,
    depth: float,
    flicker_hz: float,
    samples_per_cycle: int = 12,
    seed: "int | None" = None,
    depth_jitter: float = 0.0,
) -> IrradianceTrace:
    """Compose AC-lighting flicker onto an arbitrary base trace.

    Unlike :func:`flicker_trace` (which flickers a constant mean), this
    multiplies *any* trace -- step, ramp, diurnal -- by a sinusoidal
    ripple of the given ``depth`` at ``flicker_hz``.  With a ``seed``
    the ripple gets a random phase and, when ``depth_jitter`` > 0, a
    per-sample depth perturbation -- the stochastic flicker of a failing
    ballast.  Deterministic given the seed.

    The result's breakpoints are the union of the base trace's and the
    flicker sampling grid, so steps in the base survive exactly.
    """
    if not 0.0 <= depth <= 1.0:
        raise ModelParameterError(f"depth must be in [0, 1], got {depth}")
    if flicker_hz <= 0.0:
        raise ModelParameterError(
            f"flicker frequency must be positive, got {flicker_hz}"
        )
    if samples_per_cycle < 6:
        raise ModelParameterError(
            f"need >= 6 samples per cycle, got {samples_per_cycle}"
        )
    if not 0.0 <= depth_jitter <= 1.0:
        raise ModelParameterError(
            f"depth jitter must be in [0, 1], got {depth_jitter}"
        )
    if depth_jitter > 0.0 and seed is None:
        raise ModelParameterError(
            "stochastic flicker (depth_jitter > 0) needs a seed"
        )
    duration = trace.duration_s
    points = max(int(duration * flicker_hz * samples_per_cycle), 2)
    grid = np.linspace(0.0, duration, points)
    knots = np.unique(np.concatenate([grid, np.asarray(trace.times_s)]))
    base = trace.sample(knots)
    phase = 0.0
    depths = np.full(len(knots), depth)
    if seed is not None:
        rng = np.random.default_rng(seed)
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        if depth_jitter > 0.0:
            depths = depth * (
                1.0 + depth_jitter * rng.standard_normal(len(knots))
            )
            depths = np.clip(depths, 0.0, 1.0)
    ripple = 1.0 + depths * np.sin(2.0 * np.pi * flicker_hz * knots + phase)
    values = np.clip(base * ripple, 0.0, None)
    return IrradianceTrace(tuple(knots), tuple(values))


def concatenate(traces: Sequence[IrradianceTrace]) -> IrradianceTrace:
    """Join traces end-to-end, offsetting each by the preceding duration."""
    if not traces:
        raise ModelParameterError("need at least one trace to concatenate")
    times: list = []
    values: list = []
    offset = 0.0
    for trace in traces:
        for t, v in zip(trace.times_s, trace.values):
            shifted = t + offset
            if times and shifted <= times[-1]:
                shifted = times[-1] + 1e-9
            times.append(shifted)
            values.append(v)
        offset = times[-1]
    return IrradianceTrace(tuple(times), tuple(values))

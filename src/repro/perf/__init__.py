"""Hot-path benchmark for the transient engine.

:mod:`repro.perf.benchmark` is the steps/s harness behind
``repro bench`` and ``benchmarks/test_engine_hotpath.py``: it times the
default engine against :func:`~repro.perf.benchmark.run_reference`,
the pre-optimization loop rebuilt over the engine's own
:class:`~repro.sim.engine.Lane`, and checks that both produce the same
results bit for bit.

The bit-exact scalar solver itself lives on
:meth:`repro.pv.cell.SingleDiodeCell.current_scalar`, where the physics
is; see ``docs/performance.md`` for the architecture.
"""

from repro.perf.benchmark import (
    HotpathReport,
    VariantTiming,
    run_hotpath_benchmark,
    run_reference,
    write_report,
)

__all__ = [
    "HotpathReport",
    "VariantTiming",
    "run_hotpath_benchmark",
    "run_reference",
    "write_report",
]

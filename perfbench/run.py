"""Repository benchmark: four closed-loop workloads, one process each.

Run from the repository root::

    python3 perfbench/run.py --workload scalar_mix --seed 0 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics (set-up time, simulated
node-steps per host second, median and p90 host seconds per unit, peak
resident memory).  End-to-end times are host seconds scaled to a
reference machine speed: on shared virtual machines the same code runs
up to 1.7x slower for minutes at a time, so a fixed calibration kernel
that uses no program code is timed just before and after every unit and
set-up and every ``SAMPLE_PERIOD_S`` inside them, outside their
timings, and each one is scaled by ``REFERENCE_KERNEL_S`` over the
kernel's mean time across it.  The raw host-time values go to standard
error.

``--trace 1`` first runs the workload untraced for a share of
``--seconds``, then repeats the set-up and replays the same units with
every layer's public functions wrapped in timing spans (see
``tracing.py``), and reports the per-layer metrics: calls and self time
per wrapped function (raw host seconds), the MPPT memo hit ratio, the
fleet phase split, the vectorized-lane fraction, unattributed time and
the tracing overhead.  Node-steps are simulated work.

Every unit's simulated output is reduced to a digest and compared
exactly with ``reference.json``; a unit that raises or mismatches
counts as failed, and any failure makes the command exit 1 after
printing its result.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Without ``src/repro`` next to this directory the command
exits 2 and prints no result.

Maintenance: ``--record`` rewrites ``reference.json`` from the scalar
engine and the campaign (only after a change meant to alter simulated
results); ``--manifest`` rewrites ``manifest.json``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
MANIFEST = os.path.join(HERE, "manifest.json")
SPAN_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("scalar_mix", "fleet_small", "fleet_large", "fault_campaign")
#: Set-ups per run; ``setup_s`` adds the median of these to the one
#: import phase.
SETUP_REPS = 3
#: Share of ``--seconds`` a traced run spends untraced, to get the
#: units it replays traced and the wall the overhead is relative to.
TRACE_COMPARE_SHARE = 0.4
#: Host seconds of one calibration kernel at the reference speed; the
#: reported times are what the intervals would take at that speed.
REFERENCE_KERNEL_S = 1.7e-3
#: Host seconds between kernel timings taken in the middle of units.
SAMPLE_PERIOD_S = 0.25
#: The seed the references were checked on while building the
#: benchmark, and the held-out seed checked only once it was built.
BENCHMARK_SEED = 0
HELD_OUT_SEED = 20261017

#: ``(name, unit, better, meaning)`` of every end-to-end metric.
END_TO_END: Tuple[Tuple[str, str, str, str], ...] = (
    ("setup_s", "s", "lower",
     "host seconds from the first line of this script to the first timed "
     "unit: the imports once (raw host seconds), plus the median of "
     "SETUP_REPS scaled set-ups (characterized system, traces, nodes, "
     "planner tables, warm-up unit)"),
    ("node_steps_per_s", "steps/s", "higher",
     "simulated node-steps executed, counted from the results, per scaled "
     "host second of the timed phase"),
    ("run_p50_s", "s", "lower", "median scaled host seconds per unit"),
    ("run_p90_s", "s", "lower",
     "90th-percentile scaled host seconds per unit (inclusive method); at "
     "least ten units lie beyond it only on scalar_mix"),
    ("peak_rss_mb", "MB", "lower", "peak resident memory of the process"),
)


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        sys.exit(2)


class _Node:
    """A slotted object stepped like a simulator node."""

    __slots__ = ("v", "c")

    def __init__(self, v: float, c: float) -> None:
        self.v = v
        self.c = c

    def step(self, i: float, dt: float) -> float:
        self.v += (i - self.v / 1e3) * dt / self.c
        return self.v


class CalibrationKernel:
    """Fixed reference work that uses no program code.

    It mixes the three kinds of work the simulator does: interpreter
    work like a scalar step (method calls, a dict memo, float math),
    small array operations like a fleet step, and strided column writes
    into a ``(lanes, steps)`` array like fleet recording.  Timing it
    across units tracks the machine's speed for each kind.  The array
    is small (64 lanes) so that it adds little to ``peak_rss_mb``.
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._rows = np.zeros((64, 1201))
        self._column = np.linspace(0.0, 1.0, 64)

    def _work(self) -> None:
        np = self._np
        node, memo, out = _Node(1.0, 1e-6), {}, []
        for k in range(1500):
            key = k & 63
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = (key * 1e-6, math.sqrt(key + 1.0))
            v = node.step(hit[0] + 1e-5, 1e-8)
            out.append(v if v > 0.0 else -v)
        a = np.linspace(0.0, 1.0, 256)
        for _ in range(40):
            a = np.where(a > 0.5, a * 0.999, a + 1e-6)
        for k in range(self._rows.shape[1]):
            self._rows[:, k] = self._column

    def seconds(self) -> float:
        """Host seconds of the kernel now (best of two runs, so the
        first can warm the caches the program left cold)."""
        best = math.inf
        for _ in range(2):
            started = time.perf_counter()
            self._work()
            best = min(best, time.perf_counter() - started)
        return best


class HostClock:
    """Unscaled timing: host seconds, scale 1."""

    def __enter__(self) -> "HostClock":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass

    def clock(self) -> float:
        return time.perf_counter()

    def timed(self, call: Callable[[], Any]) -> "Tuple[float, float]":
        """Run ``call``; ``(host seconds, scale to the reference speed)``."""
        started = self.clock()
        call()
        return self.clock() - started, 1.0


class SpeedSampler(HostClock):
    """Scaled timing: the calibration kernel is timed just before and
    after every call and, from a ``SIGALRM`` handler in this thread,
    every ``SAMPLE_PERIOD_S`` inside it; :meth:`clock` leaves out the
    time spent in the kernel.  The samples inside are what track the
    machine's speed across a unit of seconds: in paired runs of
    ``fault_campaign`` with 20-ms campaigns on a 2-vCPU VM, the
    IQR/median of ``run_p50_s`` over six seeds was 0.07 with them and
    0.44 with the two end samples only.
    """

    def __init__(self, kernel: CalibrationKernel) -> None:
        self.kernel = kernel
        self.samples: List[float] = []
        self._paused_s = 0.0
        self._busy = False
        self._previous: Any = None

    def clock(self) -> float:
        return time.perf_counter() - self._paused_s

    def sample(self) -> None:
        if self._busy:  # the alarm fired while sampling
            return
        self._busy = True
        started = time.perf_counter()
        self.samples.append(self.kernel.seconds())
        self._paused_s += time.perf_counter() - started
        self._busy = False

    def _on_alarm(self, signum: int, frame: Any) -> None:
        self.sample()

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, call: Callable[[], Any]) -> "Tuple[float, float]":
        """The sample just after a call is also the one before the next."""
        if not self.samples:
            self.sample()
        first = len(self.samples) - 1
        started = self.clock()
        call()
        seconds = self.clock() - started
        self.sample()
        return seconds, REFERENCE_KERNEL_S / statistics.fmean(self.samples[first:])


def _timer(kernel: "Optional[CalibrationKernel]") -> HostClock:
    return SpeedSampler(kernel) if kernel else HostClock()


class Units:
    """Outcomes of a sequence of units, checked against the references."""

    def __init__(self, reference: Dict[str, str]) -> None:
        self.reference = reference
        self.specs: List[Any] = []
        self.seconds: List[float] = []
        self.scaled_seconds: List[float] = []
        self.digests: List[Optional[Tuple[str, ...]]] = []
        self.node_steps = 0
        #: Indices of the units that raised or mismatched.
        self.failed: Set[int] = set()
        self.wall_s = 0.0
        self.scaled_wall_s = 0.0

    def run(self, workload: Any, spec: Any) -> None:
        index = len(self.specs)
        started = workload.clock()
        try:
            unit_s, outcome = workload.run_unit(spec)
        except Exception:  # a unit that raises is a failed unit
            traceback.print_exc()
            self.specs.append(spec)
            self.seconds.append(workload.clock() - started)
            self.digests.append(None)
            self.failed.add(index)
            return
        self.specs.append(spec)
        self.seconds.append(unit_s)
        self.digests.append(outcome.digests)
        self.node_steps += outcome.node_steps
        mismatched = [
            key
            for key, value in zip(outcome.keys, outcome.digests)
            if self.reference.get(key) != value
        ]
        if mismatched:
            self.failed.add(index)
            print(
                f"unit {index} digest mismatch: "
                f"{mismatched[:4]}", file=sys.stderr,
            )


def timed_phase(
    workload: Any,
    specs: Any,
    seconds: float,
    reference: Dict[str, str],
    kernel: "Optional[CalibrationKernel]",
) -> Units:
    """Run units back to back until ``seconds`` of host time passed
    (at least one unit), or over every spec when ``seconds`` is inf.

    With a ``kernel``, each unit's times leave out the kernel timings
    and are scaled by the speed sampled across the unit.
    """
    units = Units(reference)
    with _timer(kernel) as timer:
        workload.clock = timer.clock
        for spec in specs:
            interval, scale = timer.timed(lambda: units.run(workload, spec))
            units.scaled_seconds.append(units.seconds[-1] * scale)
            units.wall_s += interval
            units.scaled_wall_s += interval * scale
            if units.wall_s >= seconds:
                break
    workload.clock = time.perf_counter
    return units


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _p90(seconds: List[float]) -> float:
    if len(seconds) == 1:
        return seconds[0]
    return statistics.quantiles(seconds, n=10, method="inclusive")[-1]


def end_to_end(
    setup_s: float, units: Units, scaled: bool
) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics, from scaled or from raw host time."""
    seconds = units.scaled_seconds if scaled else units.seconds
    wall_s = units.scaled_wall_s if scaled else units.wall_s
    values = {
        "setup_s": setup_s,
        "node_steps_per_s": units.node_steps / wall_s,
        "run_p50_s": statistics.median(seconds),
        "run_p90_s": _p90(seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: _metric(values[name], unit) for name, unit, _, _ in END_TO_END}


def setup(
    workload: Any, reps: int, kernel: "Optional[CalibrationKernel]"
) -> "Tuple[float, float]":
    """Set the workload up ``reps`` times from cleared caches; the
    median host seconds of one set-up and the median scale to the
    reference speed across them."""
    from repro.parallel.cache import clear_worker_cache

    durations, scales = [], []
    with _timer(kernel) as timer:
        for _ in range(reps):
            clear_worker_cache()
            seconds, scale = timer.timed(workload.setup)
            durations.append(seconds)
            scales.append(scale)
    return statistics.median(durations), statistics.median(scales)


def traced_run(
    workload: Any,
    seed: int,
    seconds: float,
    reference: Dict[str, str],
    kernel: CalibrationKernel,
) -> "Tuple[Dict[str, Dict[str, Any]], Units, bool]":
    """Untraced units, then a traced set-up and replay of the same units."""
    import tracing

    untraced = timed_phase(
        workload, workload.inputs(seed), seconds * TRACE_COMPARE_SHARE,
        reference, kernel,
    )
    recorder = tracing.SpanRecorder()
    before = kernel.seconds()
    with recorder:
        setup(workload, 1, None)
        traced = timed_phase(workload, untraced.specs, math.inf, reference, None)
    scale = 2.0 * REFERENCE_KERNEL_S / (before + kernel.seconds())
    spans = recorder.arrays()
    summary = recorder.summarize(spans)
    os.makedirs(SPAN_DIR, exist_ok=True)
    recorder.write(os.path.join(SPAN_DIR, f"spans-{workload.name}.npz"), spans)

    ok = True
    if traced.digests != untraced.digests:
        print("traced digests differ from untraced digests", file=sys.stderr)
        ok = False
    dead = tracing.dead_wrappers(summary, workload.name)
    if dead:
        print(f"wrappers with no calls: {dead}", file=sys.stderr)
        ok = False
    gap = tracing.closure_error(summary, recorder.names)
    if gap > tracing.CLOSURE_TOLERANCE:
        print(f"self times do not close on the traced wall: {gap}", file=sys.stderr)
        ok = False
    summary["trace.overhead_ratio"] = (
        traced.wall_s * scale / untraced.scaled_wall_s
    )
    metrics = {
        name: _metric(summary[name], unit)
        for name, unit, _ in tracing.per_layer_metrics()
    }
    traced.failed |= untraced.failed
    return metrics, traced, ok


def load_reference() -> Dict[str, str]:
    with open(REFERENCE) as handle:
        return dict(json.load(handle)["digests"])


def record() -> int:
    """Write the reference digest of every distinct unit input."""
    import workloads

    digests: Dict[str, str] = {}
    for name in ("scalar_mix", "fault_campaign"):
        workload = workloads.workloads()[name]
        workload.setup()
        for spec in workload.reference_inputs():
            _, outcome = workload.run_unit(spec)
            digests.update(zip(outcome.keys, outcome.digests))
    with open(REFERENCE, "w") as handle:
        json.dump(
            {
                "about": "digest per distinct unit input; fleet lanes are "
                "checked against the scalar-engine digests of the same "
                "scenario and level (python3 perfbench/run.py --record)",
                "digests": dict(sorted(digests.items())),
            },
            handle,
            indent=1,
        )
        handle.write("\n")
    return 0


def manifest() -> Dict[str, Any]:
    """What each workload is for and which layer metrics it should move."""
    import numpy
    import tracing
    import workloads

    out_workloads = []
    for name, workload in workloads.workloads().items():
        out_workloads.append({
            "name": name,
            "why": workload.why,
            "loop": "closed loop, one process, no worker processes or threads",
            "unit": workload.unit,
            "layers_meant_to_move": [
                layer.name for layer in tracing.LAYERS if name in layer.active
            ],
        })
    return {
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "meaning": meaning}
            for name, unit, better, meaning in END_TO_END
        ],
        "workloads": out_workloads,
        "layers": [
            {
                "name": layer.name,
                "wrapped": list(layer.targets),
                "active_on": list(layer.active),
                "moves": list(layer.moves),
            }
            for layer in tracing.LAYERS
        ],
        "time_scaling": {
            "reference_kernel_s": REFERENCE_KERNEL_S,
            "sample_period_s": SAMPLE_PERIOD_S,
        },
        "closure_tolerance": tracing.CLOSURE_TOLERANCE,
        "seeds": {"benchmark": BENCHMARK_SEED, "held_out": HELD_OUT_SEED},
        "environment": {
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
    }


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=BENCHMARK_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--manifest", action="store_true")
    args = parser.parse_args(argv)
    if not (args.record or args.manifest or args.workload):
        parser.error("--workload is required")
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    _import_program()
    import workloads

    imported_s = time.perf_counter() - _STARTED
    if args.record:
        return record()
    if args.manifest:
        with open(MANIFEST, "w") as handle:
            json.dump(manifest(), handle, indent=1)
            handle.write("\n")
        return 0

    reference = load_reference()
    workload = workloads.workloads()[args.workload]
    # A traced run reports no setup_s, so it sets up once.
    kernel = CalibrationKernel()
    setup_once, setup_scale = setup(
        workload, 1 if args.trace else SETUP_REPS, kernel
    )
    raw_setup_s = imported_s + setup_once
    if args.trace:
        metrics, units, ok = traced_run(
            workload, args.seed, args.seconds, reference, kernel
        )
        raw: Dict[str, Dict[str, Any]] = {}
    else:
        units = timed_phase(
            workload, workload.inputs(args.seed), args.seconds, reference, kernel
        )
        # The imports run once, before the kernel is warm (its first
        # timings in a process read up to 3x slow), so they count in
        # raw host seconds.
        setup_s = imported_s + setup_once * setup_scale
        print(f"{'imports (raw host)':40s} {imported_s:.6g} s", file=sys.stderr)
        metrics = end_to_end(setup_s, units, scaled=True)
        raw = end_to_end(raw_setup_s, units, scaled=False)
        ok = workload.probe()
        if not ok:
            print("fleet lanes differ from scalar runs", file=sys.stderr)

    for name, metric in metrics.items():
        raw_note = f"  (raw host: {raw[name]['value']:.6g})" if name in raw else ""
        print(
            f"{name:40s} {metric['value']:.6g} {metric['unit']}{raw_note}",
            file=sys.stderr,
        )
    correct = ok and not units.failed
    print(json.dumps({
        "correct": correct,
        "attempted": len(units.specs),
        "failed": len(units.failed),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

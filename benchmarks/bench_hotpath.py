"""Hot-path performance harness: event core, RS coding, matrix wall-clock.

Unlike the ``bench_*.py`` pytest benchmarks (which pin the *complexity
shapes* of the paper's claims), this is a standalone wall-clock harness for
the three hot layers the sweeps spend their cycles in:

1. **Event core** — a timer+broadcast flood over a small system, driven
   through ``run_until_all_correct_decide`` exactly like the experiment
   runner drives real protocols.  Reports dispatched events per second.
2. **Reed-Solomon coding** — encode/decode MB/s of the optimized codec and
   of the retained reference implementation (``repro.coding.reference``),
   on clean fragments and with Byzantine corruption.
3. **Scenario matrix** — wall-clock seconds for a fixed representative
   slice of the scenario matrix through the parallel runner.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py                 # print JSON
    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick         # reduced sizes (CI smoke)
    PYTHONPATH=src python benchmarks/bench_hotpath.py --output out.json
    PYTHONPATH=src python benchmarks/bench_hotpath.py --check BENCH_hotpath.json \
        --max-regression 0.30                                         # CI regression gate

The committed ``BENCH_hotpath.json`` stores a ``before`` section (measured
at the pre-optimization commit) and an ``after`` section (this harness on
the optimized code), giving future PRs a perf trajectory.  ``--check``
compares a fresh measurement against the committed ``after`` numbers and
exits non-zero when events/sec regressed by more than ``--max-regression``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.coding import ReedSolomonCode, Fragment, np_backend  # noqa: E402
from repro.core import SystemConfig  # noqa: E402
from repro.experiments import DEFAULT_SEED, Runner, make_scenario, sweep_seeds  # noqa: E402
from repro.sim import Process, ProtocolModule, Simulation, SynchronousDelayModel  # noqa: E402

try:  # the reference codec exists only after the hot-path PR
    from repro.coding import reference as rs_reference
except ImportError:  # pragma: no cover - pre-optimization tree
    rs_reference = None


# ----------------------------------------------------------------------
# 1. Event-core microbench
# ----------------------------------------------------------------------
class _FloodModule(ProtocolModule):
    """Broadcasts a small payload on every tick until a decision horizon."""

    def __init__(self, process, horizon, tick):
        super().__init__(process, "flood")
        self.horizon = horizon
        self.tick = tick

    def start(self):
        self.set_timer(self.tick, "tick")

    def on_message(self, sender, payload):
        self.process.count_dispatch()

    def on_timer(self, tag):
        self.process.count_dispatch()
        # A mix of payload shapes: flat tuples (the common case) and a nested
        # tuple now and then, so word_size sees both its fast and slow paths.
        if int(self.now) % 5 == 0:
            payload = ("ping", self.pid, ("nested", self.now))
        else:
            payload = ("ping", self.pid, int(self.now))
        self.broadcast(payload)
        if self.now >= self.horizon:
            self.process.decide("done")
        else:
            self.set_timer(self.tick, "tick")


class _FloodProcess(Process):
    dispatches = 0

    def on_start(self):
        _FloodProcess.dispatches += 1
        self.flood = _FloodModule(self, self._horizon, self._tick)
        self.flood.start()

    def count_dispatch(self):
        _FloodProcess.dispatches += 1


def bench_event_core(quick: bool) -> dict:
    n, t = 10, 3
    horizon = 60.0 if quick else 240.0
    tick = 0.5

    def factory(pid, sim):
        process = _FloodProcess(pid, sim)
        process._horizon = horizon
        process._tick = tick
        return process

    _FloodProcess.dispatches = 0
    system = SystemConfig(n, t)
    simulation = Simulation(system, delay_model=SynchronousDelayModel(seed=DEFAULT_SEED))
    simulation.populate(factory)
    started = time.perf_counter()
    simulation.run_until_all_correct_decide(max_events=50_000_000)
    elapsed = time.perf_counter() - started
    events = _FloodProcess.dispatches
    return {
        "n": n,
        "events": events,
        "seconds": round(elapsed, 4),
        "events_per_sec": round(events / elapsed, 1),
        "total_messages": simulation.metrics.total_messages,
    }


# ----------------------------------------------------------------------
# 2. Reed-Solomon throughput
# ----------------------------------------------------------------------
def _corrupt(fragments, count):
    corrupted = list(fragments)
    for index in range(count):
        fragment = corrupted[index]
        corrupted[index] = Fragment(
            index=fragment.index,
            symbols=tuple((symbol + 101) % 256 for symbol in fragment.symbols),
            blob_length=fragment.blob_length,
        )
    return corrupted


def _time_call(func, *args, repeat=3):
    best = float("inf")
    result = None
    for _ in range(repeat):
        started = time.perf_counter()
        result = func(*args)
        best = min(best, time.perf_counter() - started)
    return best, result


def bench_reed_solomon(quick: bool) -> dict:
    import random

    n, k = 24, 8
    # The large blob is the same size in quick mode: the optimized codec
    # decodes it in tens of milliseconds either way, and the --check gate
    # then always compares same-size corrupted-decode measurements.  Only
    # the reference codec's blob shrinks (it runs at ~0.002 MB/s).
    large_size = 65_536
    small_size = 512 if quick else 2_048
    rng = random.Random(DEFAULT_SEED)
    codec = ReedSolomonCode(total_symbols=n, data_symbols=k)
    reference_codec = (
        rs_reference.ReferenceReedSolomonCode(total_symbols=n, data_symbols=k)
        if rs_reference is not None
        else ReedSolomonCode(total_symbols=n, data_symbols=k)
    )

    def measure(code, blob, corruptions, repeat):
        encode_time, fragments = _time_call(code.encode, blob, repeat=repeat)
        received = _corrupt(fragments, corruptions)
        decode_time, decoded = _time_call(code.decode, received, repeat=repeat)
        assert decoded == blob
        mb = len(blob) / 1e6
        return {
            "blob_bytes": len(blob),
            "corrupted_fragments": corruptions,
            "encode_mb_s": round(mb / encode_time, 3),
            "decode_mb_s": round(mb / decode_time, 3),
        }

    large_blob = bytes(rng.randrange(256) for _ in range(large_size))
    small_blob = bytes(rng.randrange(256) for _ in range(small_size))
    report = {
        "n": n,
        "k": k,
        # Which kernels actually ran: regression gates only compare numbers
        # measured under the same backend as the committed baseline.
        "coding_backend": {
            "resolved": codec.backend,
            "numpy_available": np_backend.numpy_available(),
        },
        # Clean and corrupted decode are measured on the SAME blob sizes —
        # a corrupted number taken on a blob 32x smaller than the clean one
        # would hide the per-byte cost of error correction.
        "optimized_clean": measure(codec, large_blob, 0, repeat=3),
        "optimized_corrupted": measure(codec, large_blob, 3, repeat=2),
        # The small-blob entries exist so speedup ratios divide measurements
        # of the *same* workload (the reference codec cannot afford the big
        # blobs; fixed per-call overhead would bias a cross-size ratio).
        "optimized_small_clean": measure(codec, small_blob, 0, repeat=3),
        "optimized_small_corrupted": measure(codec, small_blob, 3, repeat=2),
        "reference_clean": measure(reference_codec, small_blob, 0, repeat=2),
        "reference_corrupted": measure(reference_codec, small_blob, 3, repeat=1),
    }
    reference_is_live = rs_reference is not None
    report["reference_is_distinct"] = reference_is_live
    if reference_is_live:
        report["encode_speedup_vs_reference"] = round(
            report["optimized_small_clean"]["encode_mb_s"]
            / report["reference_clean"]["encode_mb_s"],
            2,
        )
        report["decode_speedup_vs_reference"] = round(
            report["optimized_small_clean"]["decode_mb_s"]
            / report["reference_clean"]["decode_mb_s"],
            2,
        )
        report["corrupted_decode_speedup_vs_reference"] = round(
            report["optimized_small_corrupted"]["decode_mb_s"]
            / report["reference_corrupted"]["decode_mb_s"],
            2,
        )
    return report


# ----------------------------------------------------------------------
# 3. Scenario-matrix wall clock
# ----------------------------------------------------------------------
_MATRIX_SLICE = (
    ("binary", "crash", "eventual"),
    ("binary", "equivocation", "synchronous"),
    ("quad", "silent", "eventual"),
    ("universal-authenticated", "silent", "synchronous"),
    ("universal-authenticated", "equivocation", "jittered"),
    ("universal-compact", "none", "synchronous"),
    ("universal-compact", "silent", "eventual"),
    ("universal-non-authenticated", "silent", "synchronous"),
)


def bench_matrix(quick: bool) -> dict:
    scenarios = [make_scenario(p, a, d) for p, a, d in _MATRIX_SLICE]
    seeds = sweep_seeds(1 if quick else 3)
    # Steady-state throughput: one untimed sweep warms the persistent
    # worker pool, then best-of-3 timed sweeps (the same best-of convention
    # as _time_call) measure the dispatch hot path without conflating it
    # with one-time pool boot cost.
    with Runner(parallel=4, timeout=300.0) as runner:
        runner.run(scenarios, seeds)
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            results = runner.run(scenarios, seeds)
            best = min(best, time.perf_counter() - started)
    return {
        "scenarios": len(scenarios),
        "seeds": len(seeds),
        "runs": len(results),
        "failures": [result.scenario for result in results if not result.ok],
        "seconds": round(best, 3),
        "runs_per_sec": round(len(results) / best, 3),
    }


# ----------------------------------------------------------------------
# 4. Telemetry overhead (on vs off)
# ----------------------------------------------------------------------
def bench_telemetry(quick: bool) -> dict:
    """Telemetry-on vs telemetry-off deltas for the instrumented hot paths.

    Telemetry must stay descriptive *and* cheap: the sweep comparison runs
    the same serial matrix slice with the metrics registry disabled and
    enabled (instrumentation sites are parent-side, so serial execution is
    the worst case per run), and the micro sections measure the raw cost of
    a counter increment and a trace-sink event write.
    """
    import os

    from repro.obs import METRICS, TraceSink, set_enabled

    scenarios = [make_scenario(p, a, d) for p, a, d in _MATRIX_SLICE[:4]]
    seeds = sweep_seeds(1)

    def sweep_runs_per_sec() -> float:
        with Runner(timeout=300.0) as runner:
            started = time.perf_counter()
            results = runner.run(scenarios, seeds)
            elapsed = time.perf_counter() - started
        assert all(result.ok for result in results)
        return len(results) / elapsed

    try:
        set_enabled(False)
        sweep_off = sweep_runs_per_sec()
        set_enabled(True)
        sweep_on = sweep_runs_per_sec()

        increments = 200_000 if quick else 1_000_000
        counter = METRICS.counter("bench.telemetry.increments")

        def incs_per_sec() -> float:
            started = time.perf_counter()
            for _ in range(increments):
                counter.inc()
            return increments / (time.perf_counter() - started)

        counter_on = incs_per_sec()
        set_enabled(False)
        counter_off = incs_per_sec()
        set_enabled(True)

        trace_events = 20_000 if quick else 100_000
        with open(os.devnull, "w", encoding="utf-8") as handle:
            sink = TraceSink(handle)
            started = time.perf_counter()
            for index in range(trace_events):
                sink.event("bench.tick", index=index)
            trace_eps = trace_events / (time.perf_counter() - started)
            sink.close()
    finally:
        set_enabled(True)
        METRICS.reset()

    return {
        "sweep_runs_per_sec_off": round(sweep_off, 3),
        "sweep_runs_per_sec_on": round(sweep_on, 3),
        "sweep_overhead_fraction": round(max(0.0, 1.0 - sweep_on / sweep_off), 4),
        "counter_inc_per_sec_on": round(counter_on, 1),
        "counter_inc_per_sec_off": round(counter_off, 1),
        "trace_events_per_sec": round(trace_eps, 1),
    }


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def measure(quick: bool) -> dict:
    return {
        "quick": quick,
        "event_core": bench_event_core(quick),
        "reed_solomon": bench_reed_solomon(quick),
        "matrix": bench_matrix(quick),
        "telemetry": bench_telemetry(quick),
    }


def check_against(measured: dict, committed_path: pathlib.Path, max_regression: float) -> int:
    committed = json.loads(committed_path.read_text())
    stored = committed.get("after", committed)
    stored_eps = stored["event_core"]["events_per_sec"]
    measured_eps = measured["event_core"]["events_per_sec"]
    floor = stored_eps * (1.0 - max_regression)
    print(
        f"events/sec: measured {measured_eps:.0f}, committed {stored_eps:.0f}, "
        f"floor {floor:.0f} ({max_regression:.0%} regression budget)"
    )
    failed = False
    if measured["matrix"]["failures"]:
        print(f"FAIL: matrix slice runs failed: {measured['matrix']['failures']}")
        failed = True
    if measured_eps < floor:
        print("FAIL: event-core throughput regressed beyond the budget")
        failed = True
    # The corrupted-decode path regressed silently once (measured on a blob
    # 32x smaller than the clean path); gate it explicitly — but only when
    # this environment resolved the same coding backend the committed
    # numbers were measured under (a no-numpy runner is slower by design).
    stored_rs = stored.get("reed_solomon", {})
    measured_rs = measured["reed_solomon"]
    stored_backend = stored_rs.get("coding_backend")
    if stored_backend is not None and stored_backend == measured_rs.get("coding_backend"):
        stored_dirty = stored_rs["optimized_corrupted"]["decode_mb_s"]
        measured_dirty = measured_rs["optimized_corrupted"]["decode_mb_s"]
        dirty_floor = stored_dirty * (1.0 - max_regression)
        print(
            f"corrupted decode MB/s: measured {measured_dirty:.3f}, committed "
            f"{stored_dirty:.3f}, floor {dirty_floor:.3f}"
        )
        if measured_dirty < dirty_floor:
            print("FAIL: corrupted-decode throughput regressed beyond the budget")
            failed = True
    elif stored_backend is not None:
        print(
            "skip: corrupted-decode gate (coding backend differs from the committed baseline: "
            f"{measured_rs.get('coding_backend')} vs {stored_backend})"
        )
    if failed:
        return 1
    print("ok: no hot-path regression")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hot-path wall-clock benchmarks")
    parser.add_argument("--quick", action="store_true", help="reduced sizes for CI smoke runs")
    parser.add_argument("--output", type=pathlib.Path, default=None, help="write the measurement JSON")
    parser.add_argument(
        "--check", type=pathlib.Path, default=None, help="compare against a committed BENCH_hotpath.json"
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="allowed fractional events/sec drop vs the committed baseline (default 0.30)",
    )
    args = parser.parse_args(argv)

    measured = measure(quick=args.quick)
    print(json.dumps(measured, indent=2, sort_keys=True))
    if args.output is not None:
        args.output.write_text(json.dumps(measured, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    if args.check is not None:
        return check_against(measured, args.check, args.max_regression)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

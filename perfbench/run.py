#!/usr/bin/env python3
"""End-to-end benchmark of ``python -m repro.experiments``, split by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 35 --trace 0

Workloads (see ``layers.json`` for why each one exists): ``matrix`` (``run``
over the full default matrix at ``--parallel 2``), ``analyze`` (``analyze
--parallel 2 --check-baseline``) and ``fuzz`` (a serial 1000-candidate
campaign).

``--trace 0`` times the real command as a subprocess, closed loop, for
``--seconds`` seconds (analyze for at least two commands), and reports the
medians of ``wall_s``, ``cpu_s`` and ``peak_rss_mb`` over the samples, and
of ``setup_s`` over several set-up probes (``probe.py``).  Times are
reported at the reference host speed: each one is scaled by the host-speed
kernel (``hostspeed.py``) run just before and after it, because this
host's speed swings by tens of percent between runs; the measured times
are printed beside them and kept in ``result.json``.  Every sample's output
is checked: the matrix digest must equal a serial in-process sweep of the
same seeds, analyze's verdicts the committed baseline, and the fuzz report
a serial in-process campaign.

``--trace 1`` runs the same command in this process (``traced.py``) and
reports the per-layer metrics of ``BENCHMARK.json``.  It fails when a named
entry point records no call on a workload ``layers.json`` says exercises
it, or when a machine-independent count of the default seed (benchmark seed
0) differs from ``expected_counts.json``; ``--write-counts`` re-records
that file from a ``--seed 0 --trace 1`` run after an intended change.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (units of work: runs, verdicts or fuzz candidates)
and ``metrics``.  Everything the run writes goes under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import hostspeed

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SETUP_PROBES = 5
KERNEL_SHARE = 0.1
"""Before and after each sample the host-speed kernel runs for this share of
the sample's wall time (before it, of the previous sample's)."""
COMMAND_DEADLINE_S = 120.0
"""A command still running after this long is killed and fails its units."""

def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


class Bench:
    """One benchmark run: its workload, seed, work directory and environment."""

    def __init__(self, workload: Any, seed: int, workdir: pathlib.Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        self.env = env
        self._files = 0

    def path(self, stem: str, suffix: str) -> pathlib.Path:
        """A new file name in the work directory."""
        self._files += 1
        return self.workdir / f"{stem}-{self._files}{suffix}"

    def spawn(self, argv: List[str], log: pathlib.Path) -> Sample:
        """Run one command to completion; wall, tree CPU and tree peak RSS."""
        with open(log, "wb") as sink:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdout=sink, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            killer = threading.Timer(COMMAND_DEADLINE_S, _kill_group, (proc.pid,))
            killer.start()
            try:
                # wait4 reports the child's usage plus every descendant it
                # reaped: the pool's workers are joined before the CLI exits.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # orphans of a command that died mid-sweep
        return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)

    def cli(self, argv: List[str]) -> List[str]:
        return [sys.executable, "-m", "repro.experiments", *argv]

    def store(self, stem: str) -> Optional[pathlib.Path]:
        """A fresh run store for one command, or None if the workload uses none."""
        return self.path(stem, ".db") if self.workload.uses_store else None

    def sample(self):
        """Run the workload's command once; returns (sample, checked output)."""
        from workloads import check_output, command

        output, store = self.path("output", ".json"), self.store("store")
        argv = command(self.workload, self.seed, output, store, self.workload.parallel)
        result = self.spawn(self.cli(argv), self.path("command", ".log"))
        checked = check_output(self.workload, ROOT, output, result.exit_code)
        _remove_store(store)
        return result, checked

    def probe(self) -> Dict[str, Any]:
        """One set-up probe; adds ``setup_s``, spawn to ready."""
        store = self.store("probe")
        argv = [sys.executable, str(HERE / "probe.py"), self.workload.name, str(store or "-")]
        spawned = _monotonic()
        done = subprocess.run(
            argv, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=COMMAND_DEADLINE_S
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({done.returncode}): {done.stderr.strip()[-500:]}")
        report = json.loads(done.stdout.strip().splitlines()[-1])
        report["setup_s"] = report["ready"] - spawned
        _remove_store(store)
        return report


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _remove_store(store: Optional[pathlib.Path]) -> None:
    if store is None:
        return
    for path in store.parent.glob(store.name + "*"):
        path.unlink()


# ----------------------------------------------------------------------
# Host metadata
# ----------------------------------------------------------------------
def _cpu_model() -> Optional[str]:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_metadata(probe: Dict[str, Any]) -> Dict[str, Any]:
    """The state of the machine and the instrument that produced a result."""
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "load_average": os.getloadavg(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": probe.get("numpy"),
        "coding_backend": probe.get("coding_backend"),
        "REPRO_CODING_BACKEND": os.environ.get("REPRO_CODING_BACKEND"),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


# ----------------------------------------------------------------------
# --trace 0: the end-to-end metrics
# ----------------------------------------------------------------------
def timed_run(bench: Bench, seconds: float, units: Dict[str, str]) -> Dict[str, Any]:
    workload, seed = bench.workload, bench.seed
    problems: List[str] = []
    reference = None

    # Probes, samples and host-speed kernels alternate, so all three see
    # the same stretches of the host's (drifting) speed; a long command
    # gets its remaining probes afterwards.  Each probe and sample is
    # scaled by the mean of the kernels run just before and just after it:
    # the host flips between fast and slow spells shorter than a sample,
    # and a sample's time averages over them.
    probes, samples, checks, kernels, local = [], [], [], [], []
    started = time.perf_counter()
    expected_wall = 0.0
    while True:
        before = hostspeed.kernels_for(KERNEL_SHARE * expected_wall)
        probes.append(bench.probe())
        sample, checked = bench.sample()
        samples.append(sample)
        checks.append(checked)
        around = before + hostspeed.kernels_for(KERNEL_SHARE * sample.wall_s)
        kernels += around
        local.append(around)
        expected_wall = sample.wall_s
        if len(samples) >= workload.min_samples and time.perf_counter() - started + sample.wall_s > seconds:
            break
    probe_local = list(local)
    while len(probes) < MIN_SETUP_PROBES:
        before = hostspeed.kernel()
        probes.append(bench.probe())
        around = [before, hostspeed.kernel()]
        kernels += around
        probe_local.append(around)

    # Every sample's output must be byte-identical: to a serial in-process
    # run, or (analyze) to the first sample.
    if workload.name in ("matrix", "fuzz"):
        serial = serial_reference(bench)
        problems += [f"serial in-process run: {problem}" for problem in serial.problems]
        reference = serial.digest
    for index, checked in enumerate(checks):
        if not checked.failed:
            reference = reference or checked.digest
            if checked.digest != reference:
                checked.problems.append(f"output digest {checked.digest} differs from {reference}")
                checked.failed = checked.units
        problems += [f"sample {index}: {problem}" for problem in checked.problems]

    values = {
        "wall_s": [sample.wall_s for sample in samples],
        "setup_s": [probe["setup_s"] for probe in probes],
        "cpu_s": [sample.cpu_s for sample in samples],
        "peak_rss_mb": [sample.peak_rss_mb for sample in samples],
    }
    scaled = {
        "wall_s": [at_reference(s.wall_s, around, WALL) for s, around in zip(samples, local)],
        "setup_s": [at_reference(p["setup_s"], around, WALL) for p, around in zip(probes, probe_local)],
        "cpu_s": [at_reference(s.cpu_s, around, CPU) for s, around in zip(samples, local)],
        "peak_rss_mb": values["peak_rss_mb"],
    }
    raw = {name: statistics.median(series) for name, series in values.items()}
    medians = {name: statistics.median(series) for name, series in scaled.items()}
    values.update({f"scaled_{name}": series for name, series in scaled.items()})
    values["kernel_wall_s"] = [wall for wall, _ in kernels]
    values["kernel_cpu_s"] = [cpu for _, cpu in kernels]
    kernel_wall = statistics.fmean(values["kernel_wall_s"])
    kernel_cpu = statistics.fmean(values["kernel_cpu_s"])
    attempted = sum(checked.units for checked in checks)
    failed = sum(checked.failed for checked in checks)
    print(
        f"workload {workload.name} seed {seed}: {len(samples)} samples, {len(probes)} set-up probes, "
        f"{len(kernels)} host-speed kernels (mean {kernel_wall:.4f} s wall, {kernel_cpu:.4f} s CPU)"
    )
    for name in raw:
        series = values[name]
        print(
            f"  {name:<12} {medians[name]:.4f} {units[name]}  (median of {len(series)}; "
            f"measured median {raw[name]:.4f}, min {min(series):.4f}, max {max(series):.4f})"
        )
    print(f"  {'fail_rate':<12} {failed / attempted:.4f}  ({failed} of {attempted} units failed)")
    return {
        "probe": probes[0],
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": medians,
        "samples": values,
    }


WALL, CPU = 0, 1


def at_reference(seconds: float, around: List[Tuple[float, float]], clock: int) -> float:
    """``seconds`` at the reference host speed, from the kernels run ``around`` it.

    ``clock`` picks the kernels' wall (``WALL``) or CPU (``CPU``) times, to
    match what ``seconds`` measured.
    """
    speed = hostspeed.REFERENCE_S / statistics.fmean(kernel[clock] for kernel in around)
    return seconds * speed**hostspeed.SENSITIVITY


def serial_reference(bench: Bench):
    """The checked output of the first sample's inputs, run serially in-process."""
    from traced import run_cli
    from workloads import check_output, command

    output = bench.path("serial", ".json")
    argv = command(bench.workload, bench.seed, output, bench.path("serial", ".db"), None)
    code, _ = run_cli(argv, bench.path("serial", ".log"), None)
    return check_output(bench.workload, ROOT, output, code)


# ----------------------------------------------------------------------
# --trace 1: the per-layer metrics
# ----------------------------------------------------------------------
def traced_passes(bench: Bench, seed: int, entry_points, with_serial: bool):
    """Dispatch, serial and traced passes of one seed; outputs must agree."""
    import traced
    from workloads import check_output, command

    workload = bench.workload
    passes, checks = {}, {}
    plan = [("dispatch", workload.parallel)]
    if with_serial and workload.parallel:
        plan.append(("serial", None))
    plan.append(("traced", None))
    for kind, parallel in plan:
        output = bench.path(kind, ".json")
        argv = command(workload, seed, output, bench.store(kind), parallel)
        log = bench.path(kind, ".log")
        if kind == "traced":
            passes[kind] = traced.traced_pass(argv, log, entry_points)
        else:
            passes[kind] = traced.dispatch_pass(argv, log)
        checks[kind] = check_output(workload, ROOT, output, passes[kind].exit_code)
    passes.setdefault("serial", passes["dispatch"])
    problems = [f"{kind} pass: {p}" for kind, checked in checks.items() for p in checked.problems]
    digests = {checked.digest for checked in checks.values()}
    if len(digests) != 1:
        problems.append(f"traced, serial and dispatch outputs differ: {sorted(map(str, digests))}")
    return passes, checks["traced"], problems


def trace_run(bench: Bench, write_counts: bool) -> Dict[str, Any]:
    import traced
    from spans import layer_of

    workload, seed = bench.workload, bench.seed
    layers = json.loads((HERE / "layers.json").read_text())
    entry_points = layers["entry_points"]
    probes = [bench.probe() for _ in range(MIN_SETUP_PROBES)]

    traced.import_program()
    passes, checked, problems = traced_passes(bench, seed, entry_points, True)
    workers = workload.parallel or 1
    metrics = traced.layer_metrics(
        passes["traced"], passes["serial"], passes["dispatch"], workers, checked.counts
    )
    for key in ("import_s", "pool_start_s", "store_open_s"):
        metrics[f"setup.{key}"] = statistics.median([probe[key] for probe in probes])
    missed = traced.missed_entry_points(passes["traced"], workload.name, entry_points)
    problems += [f"entry point {span} recorded no call on {workload.name}" for span in missed]
    spans_path = bench.workdir / "spans.jsonl"
    passes["traced"].tracer.write_jsonl(spans_path)

    # The exact-count gate always judges the default inputs (seed 0).
    if seed == 0 or not workload.seeded:
        gate_passes, gate_checked = passes, checked
    else:
        gate_passes, gate_checked, gate_problems = traced_passes(bench, 0, entry_points, False)
        problems += [f"default seed: {p}" for p in gate_problems]
    counts = traced.deterministic_counts(
        gate_passes["traced"], gate_passes["dispatch"], gate_checked.counts, entry_points
    )
    counts_path = HERE / "expected_counts.json"
    expected = json.loads(counts_path.read_text()) if counts_path.exists() else {}
    if write_counts:
        expected[workload.name] = counts
        counts_path.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
        print(f"recorded {len(counts)} default-seed counts for {workload.name} in {counts_path.name}")
    else:
        recorded = expected.get(workload.name)
        if recorded is None:
            problems.append(f"no recorded default-seed counts for {workload.name}")
        else:
            for key in sorted(set(recorded) | set(counts)):
                if recorded.get(key) != counts.get(key):
                    problems.append(f"count {key}: {counts.get(key)} != recorded {recorded.get(key)}")

    layer_self = passes["traced"].tracer.self_time_by(layer_of)
    root = passes["traced"].wall_s
    print(f"workload {workload.name} seed {seed}: traced pass {root:.4f} s, spans -> {spans_path}")
    for layer, own in sorted(layer_self.items(), key=lambda item: -item[1]):
        print(f"  self {layer:<12} {own:10.4f} s  {100 * own / root:5.1f}%")
    print(f"  counts {json.dumps(counts, sort_keys=True)}")
    return {
        "probe": probes[0],
        "problems": problems,
        "attempted": checked.units,
        "failed": checked.failed,
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["matrix", "analyze", "fuzz"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--write-counts", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.write_counts and not (args.trace == 1 and args.seed == 0):
        parser.error("--write-counts needs --trace 1 --seed 0")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "experiments" / "__main__.py").is_file():
        print(f"error: no repro source tree under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Pin string hashing so traced call counts repeat exactly; exec
        # keeps this process rather than starting another.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(pathlib.Path(__file__).resolve()), *sys.argv[1:]], env)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    bench = Bench(WORKLOADS[args.workload], args.seed, workdir)
    wanted = {
        metric["name"]: metric["unit"] for metric in contract["per_layer" if args.trace else "end_to_end"]
    }
    if args.trace:
        outcome = trace_run(bench, args.write_counts)
    else:
        outcome = timed_run(bench, args.seconds, wanted)
    metrics = outcome["metrics"]
    if set(metrics) != set(wanted):
        outcome["problems"].append(
            f"metrics {sorted(set(metrics) ^ set(wanted))} disagree with BENCHMARK.json"
        )
    host = host_metadata(outcome["probe"])
    print(f"host {json.dumps(host, sort_keys=True)}")
    for problem in outcome["problems"]:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not outcome["problems"] and outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items() if name in metrics
        },
    }
    record = {"host": host, "problems": outcome["problems"], "samples": outcome.get("samples"), **result}
    (workdir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The traced run: per-layer time and counts, measured from outside the program.

A workload's command is run in this process through the program's own
entry point, ``repro.experiments.cli.main``, three ways:

* the **dispatch pass** runs the command as users run it (``--parallel 2``
  where the workload has it) with one wrapper, around ``Runner.iter_tasks``,
  whose time in the parent is ``resilience.dispatch_s``;
* the **serial pass** runs it serially with the same single wrapper; its
  ``iter_tasks`` time is the serial busy time, its wall time the untraced
  reference for ``trace.overhead_s`` (a serial command's dispatch pass
  serves as its serial pass);
* the **traced pass** runs it serially with every entry point in
  ``layers.json`` wrapped (spans recorded in forked workers would be lost).

All three must write byte-identical outputs: tracing is observation only.
Every wrapper is installed after every ``repro`` module is imported, and
removed again when the pass ends.

Importing this module does no work.
"""

from __future__ import annotations

import contextlib
import importlib
import pathlib
import pkgutil
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from spans import Tracer, layer_of, subclasses_defining

ITER_TASKS = "resilience.iter_tasks"


def import_program() -> None:
    """Import every ``repro`` module, so every alias exists before wrapping."""
    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)


def resolve(target: str) -> Tuple[Any, str]:
    """``"pkg.module:Class.method"`` -> (owner, attribute)."""
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute


@dataclass
class Pass:
    """One in-process run of the command."""

    wall_s: float
    exit_code: int
    tracer: Tracer
    runners: List[Any] = field(default_factory=list)
    stores: List[Any] = field(default_factory=list)
    messages: int = 0
    words: int = 0


def run_cli(argv: List[str], log: pathlib.Path, tracer: Optional[Tracer]) -> Tuple[int, float]:
    from repro.experiments.cli import main

    with open(log, "w", encoding="utf-8") as sink:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            root = tracer.open("cli.main") if tracer is not None else None
            start = time.perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            finally:
                wall = time.perf_counter() - start
                if tracer is not None:
                    tracer.close(root)
    return code, wall


def dispatch_pass(argv: List[str], log: pathlib.Path) -> Pass:
    """Run the command with only ``Runner.iter_tasks`` timed."""
    tracer = Tracer()
    runners: List[Any] = []
    owner, attribute = resolve("repro.experiments.runner:Runner.iter_tasks")
    tracer.install(ITER_TASKS, owner, attribute, on_call=lambda args: runners.append(args[0]))
    try:
        code, wall = run_cli(argv, log, None)
    finally:
        tracer.remove()
    return Pass(wall, code, tracer, runners=runners)


def traced_pass(argv: List[str], log: pathlib.Path, entry_points: List[Dict[str, Any]]) -> Pass:
    """Run the command serially with every entry point wrapped."""
    tracer = Tracer()
    outcome = Pass(0.0, 0, tracer)

    def on_run(result: Any) -> None:
        outcome.messages += result.total_messages
        outcome.words += result.total_words

    hooks = {
        "store.open": {"on_call": lambda args: outcome.stores.append(args[0])},
        "experiments.execute_run": {"on_result": on_run},
    }
    try:
        for entry in entry_points:
            owner, attribute = resolve(entry["target"])
            owners = subclasses_defining(owner, attribute) if entry.get("subclasses") else [owner]
            for cls in owners:
                tracer.install(
                    entry["span"], cls, attribute, alias_prefix="repro", **hooks.get(entry["span"], {})
                )
        outcome.exit_code, outcome.wall_s = run_cli(argv, log, tracer)
    finally:
        tracer.remove()
    return outcome


def supervision(dispatch: Pass) -> Dict[str, int]:
    totals = {"dispatched": 0, "retries": 0, "crashes_detected": 0}
    for runner in {id(runner): runner for runner in dispatch.runners}.values():
        stats = runner.supervision.as_dict()
        for key in totals:
            totals[key] += stats[key]
    return totals


def store_counts(traced: Pass) -> Dict[str, int]:
    totals = {"hits": 0, "misses": 0, "stored": 0}
    for store in traced.stores:
        stats = store.stats.as_dict()
        for key in totals:
            totals[key] += stats[key]
    return totals


def layer_metrics(
    traced: Pass, serial: Pass, dispatch: Pass, workers: int, output_counts: Dict[str, int]
) -> Dict[str, float]:
    """The per-layer metrics of one traced run (setup.* come from the probes)."""
    tracer = traced.tracer
    layer_self = tracer.self_time_by(layer_of)
    span_self = tracer.self_time_by(lambda name: name)
    calls = tracer.calls
    dispatch_s = dispatch.tracer.total_time(ITER_TASKS)
    busy_s = serial.tracer.total_time(ITER_TASKS)
    stores = store_counts(traced)
    supervised = supervision(dispatch)
    metrics: Dict[str, float] = {
        "jobs.submit_s": span_self.get("jobs.submit", 0.0),
        "experiments.self_s": layer_self.get("experiments", 0.0),
        "experiments.runs": calls.get("experiments.execute_run", 0),
        "resilience.dispatch_s": dispatch_s,
        "resilience.efficiency": busy_s / (workers * dispatch_s) if dispatch_s > 0 else 0.0,
        "resilience.dispatched": supervised["dispatched"],
        "resilience.retries": supervised["retries"],
        "resilience.crashes_detected": supervised["crashes_detected"],
        "sim.self_s": layer_self.get("sim", 0.0),
        "sim.transmit.calls": calls.get("sim.transmit", 0),
        "sim.messages": traced.messages,
        "sim.words": traced.words,
        "consensus.self_s": layer_self.get("consensus", 0.0),
        "consensus.deliver.calls": calls.get("consensus.deliver", 0),
        "crypto.self_s": layer_self.get("crypto", 0.0),
        "coding.self_s": layer_self.get("coding", 0.0),
        "store.get_s": tracer.total_time("store.get"),
        "store.put_s": tracer.total_time("store.put"),
        "store.flush_s": tracer.total_time("store.flush"),
        "store.hits": stores["hits"],
        "store.misses": stores["misses"],
        "store.stored": stores["stored"],
        "analysis.classify.self_s": span_self.get("analysis.classify", 0.0),
        "core.similarity_s": tracer.total_time("core.similarity"),
        "fuzz.self_s": layer_self.get("fuzz", 0.0),
        "trace.overhead_s": traced.wall_s - serial.wall_s,
    }
    for span in (
        "crypto.digest", "crypto.sign", "crypto.verify", "crypto.threshold_verify",
        "coding.encode", "coding.decode",
    ):
        metrics[f"{span}.calls"] = calls.get(span, 0)
    for key in (
        "analysis.configurations_checked", "analysis.minimal_configurations_checked",
        "analysis.tasks_enumerated", "analysis.tasks_closed_form",
        "fuzz.executed", "fuzz.novel", "fuzz.coverage_sites", "fuzz.violating",
    ):
        metrics[key] = output_counts.get(key, 0)
    return metrics


def deterministic_counts(
    traced: Pass, dispatch: Pass, output_counts: Dict[str, int], entry_points: List[Dict[str, Any]]
) -> Dict[str, int]:
    """Every machine-independent count of a traced run, for the exact-match gate."""
    counts = {f"calls.{entry['span']}": traced.tracer.calls.get(entry["span"], 0) for entry in entry_points}
    counts["sim.messages"] = traced.messages
    counts["sim.words"] = traced.words
    counts.update({f"store.{key}": value for key, value in store_counts(traced).items()})
    counts.update({f"resilience.{key}": value for key, value in supervision(dispatch).items()})
    counts.update(output_counts)
    return dict(sorted(counts.items()))


def missed_entry_points(traced: Pass, workload: str, entry_points: List[Dict[str, Any]]) -> List[str]:
    """Entry points ``layers.json`` says this workload exercises but that recorded no call."""
    return [
        entry["span"]
        for entry in entry_points
        if workload in entry["exercised_on"] and not traced.tracer.calls.get(entry["span"])
    ]

"""The benchmark's workloads: the command each one runs, and its output checks.

Every workload is one ``python -m repro.experiments`` command, run closed
loop (one command at a time, at most two worker processes).  Inputs come
from the benchmark seed only: seed N sweeps the matrix over the seeds
2023+3N, 2023+3N+1 and 2023+3N+2, so seed 0 is the program's own default.
``analyze`` has no seed input, and ``fuzz`` always runs the default
campaign (fuzz seed 2023): at budget 1000 one campaign takes 2 s or 46 s
depending on where its mutation walk goes, so a seeded campaign would
measure the seed, not the program.  The reasons for each workload, and the
layers each one should move, are in ``layers.json``.  A fourth workload,
``run --require-cached`` on a filled store, was dropped: its half-second
commands, mostly interpreter start-up, spread 0.21 (quartile distance over
median of ten runs) as measured and 0.09 scaled to the reference host
speed, and each of its runs took time the other three need for longer runs.

Importing this module does no work.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

REPRO_DEFAULT_SEED = 2023
"""``repro.experiments.DEFAULT_SEED``: benchmark seed 0 maps onto it."""

MATRIX_SEEDS = 3

MATRIX_RUNS = 112 * MATRIX_SEEDS

FUZZ_BUDGET = 1000
"""Large enough that the campaign, not interpreter start-up, dominates."""

WORKERS = 2

VERDICT_BASELINE = pathlib.Path("benchmarks/baselines/analysis_verdicts.json")


@dataclass(frozen=True)
class Workload:
    name: str
    parallel: Optional[int]
    seeded: bool
    uses_store: bool
    """Each command writes a fresh ``--store``."""
    min_samples: int = 1
    """Samples a timed run takes even when they overrun ``--seconds`` (analyze's
    command alone takes most of a run)."""


WORKLOADS: Dict[str, Workload] = {
    "matrix": Workload("matrix", WORKERS, True, True),
    "analyze": Workload("analyze", WORKERS, False, False, min_samples=2),
    "fuzz": Workload("fuzz", None, False, True),
}


def matrix_seeds(seed: int) -> List[int]:
    base = REPRO_DEFAULT_SEED + MATRIX_SEEDS * seed
    return [base + offset for offset in range(MATRIX_SEEDS)]


def command(
    workload: Workload,
    seed: int,
    output: pathlib.Path,
    store: Optional[pathlib.Path],
    parallel: Optional[int],
) -> List[str]:
    """The CLI arguments (after ``python -m repro.experiments``) of one sample."""
    if workload.name == "matrix":
        argv = ["run", "--seeds", ",".join(str(s) for s in matrix_seeds(seed))]
        argv += ["--store", str(store), "--output", str(output), "--quiet"]
    elif workload.name == "analyze":
        argv = ["analyze", "--check-baseline", "--json-output", str(output), "--quiet"]
    else:
        argv = ["fuzz", "--seed", str(REPRO_DEFAULT_SEED), "--budget", str(FUZZ_BUDGET)]
        argv += ["--store", str(store), "--json-output", str(output), "--quiet"]
    if parallel:
        argv += ["--parallel", str(parallel)]
    return argv


def file_digest(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Checked:
    """The output check of one command: its units of work and what failed."""

    units: int
    failed: int
    digest: Optional[str] = None
    counts: Dict[str, int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def expected_units(workload: Workload, root: pathlib.Path) -> int:
    if workload.name == "matrix":
        return MATRIX_RUNS
    if workload.name == "analyze":
        return len(load_verdicts(root / VERDICT_BASELINE))
    return FUZZ_BUDGET


def load_verdicts(path: pathlib.Path) -> Dict[str, Any]:
    return json.loads(path.read_text())["verdicts"]


def check_output(
    workload: Workload, root: pathlib.Path, output: pathlib.Path, exit_code: int
) -> Checked:
    """Count the units of work one command did and the ones that failed.

    A failed unit is a run record with an error or violation, or a verdict
    that differs from the committed baseline.  A command that exits
    non-zero, or whose output is missing or malformed, fails every unit.
    """
    units = expected_units(workload, root)
    if exit_code != 0:
        return Checked(units, units, problems=[f"exit code {exit_code}"])
    try:
        payload = json.loads(output.read_text())
    except (OSError, ValueError) as exc:
        return Checked(units, units, problems=[f"unreadable output {output.name}: {exc}"])
    checked = Checked(units, 0, digest=file_digest(output))
    if workload.name == "matrix":
        checked.units = len(payload)
        checked.failed = sum(1 for record in payload if record["error"] or record["violations"])
        checked.counts = {
            "records": len(payload),
            "records.messages": sum(record["total_messages"] for record in payload),
            "records.words": sum(record["total_words"] for record in payload),
        }
        if checked.units != MATRIX_RUNS:
            checked.problems.append(f"{checked.units} run records, expected {MATRIX_RUNS}")
    elif workload.name == "analyze":
        baseline = load_verdicts(root / VERDICT_BASELINE)
        verdicts = payload["verdicts"]
        labels = set(baseline) | set(verdicts)
        checked.units = len(labels)
        checked.failed = sum(1 for label in labels if verdicts.get(label) != baseline.get(label))
        checked.counts = analysis_counts(verdicts.values())
    else:
        checked.counts = {
            f"fuzz.{key}": payload[key] for key in ("executed", "novel", "coverage_sites", "violating")
        }
        if payload["candidates"] != FUZZ_BUDGET:
            checked.problems.append(f"{payload['candidates']} fuzz candidates, expected {FUZZ_BUDGET}")
    if checked.failed:
        checked.problems.append(f"{checked.failed} of {checked.units} units failed")
    return checked


def analysis_counts(verdicts: Any) -> Dict[str, int]:
    """The theory-side work counts, summed over verdict payloads."""
    verdicts = list(verdicts)
    return {
        "analysis.configurations_checked": sum(v["configurations_checked"] for v in verdicts),
        "analysis.minimal_configurations_checked": sum(
            v["minimal_configurations_checked"] for v in verdicts
        ),
        "analysis.tasks_enumerated": sum(1 for v in verdicts if v["method"] == "enumeration"),
        "analysis.tasks_closed_form": sum(1 for v in verdicts if v["method"] == "closed-form"),
    }

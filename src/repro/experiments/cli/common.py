"""Shared CLI plumbing: failure rendering, slice arguments, default paths.

Every command module renders configuration errors and empty slices through
:func:`fail` / :func:`fail_empty`, so the ``error:`` / ``empty slice:``
prefixes and the exit codes (from :mod:`repro.jobs.status`) are defined in
exactly one place.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from ...jobs.status import EXIT_CONFIG, EXIT_EMPTY_SLICE
from ..scenario import ADVERSARIES, DELAY_MODELS, PROTOCOLS

DEFAULT_VERDICT_BASELINE = pathlib.Path("benchmarks/baselines/analysis_verdicts.json")
"""The committed analysis-verdict baseline (``analyze --check-baseline`` default)."""

DEFAULT_MATRIX_BASELINE = pathlib.Path("benchmarks/baselines/scenario_matrix.json")
"""The committed scenario-matrix baseline the cross-check reads by default."""


def fail(message: str) -> int:
    """Render a configuration error; returns :data:`EXIT_CONFIG`."""
    print(f"error: {message}", file=sys.stderr)
    return EXIT_CONFIG


def fail_empty(message: str) -> int:
    """Render an empty report/compare slice; returns :data:`EXIT_EMPTY_SLICE`."""
    print(f"empty slice: {message}", file=sys.stderr)
    return EXIT_EMPTY_SLICE


def add_slice_arguments(parser: argparse.ArgumentParser, with_scenario: bool = True) -> None:
    """The matrix-slice selectors shared by ``run`` and ``report``."""
    if with_scenario:
        parser.add_argument("--scenario", nargs="+", default=None, help="explicit scenario names")
    parser.add_argument("--protocol", nargs="+", default=None, choices=sorted(PROTOCOLS))
    parser.add_argument("--adversary", nargs="+", default=None, choices=sorted(ADVERSARIES))
    parser.add_argument("--delay", nargs="+", default=None, choices=sorted(DELAY_MODELS))


def add_parallelism_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``--parallel`` flag shared by ``run``, ``analyze`` and ``fuzz``.

    It sizes the worker pool, a pure throughput knob: any worker count
    (including serial) produces byte-identical records.  How work is
    batched across the workers is the supervisor's decision, not a flag.
    """
    from .validators import positive_int

    parser.add_argument(
        "--parallel", type=positive_int, default=None, metavar="W", help="worker processes (default: serial)"
    )


def add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    """The fault-tolerance knobs shared by ``run``, ``analyze`` and ``fuzz``.

    Validated at parse time through :func:`.validators.non_negative_int`, so
    a bad retry budget dies with the same argparse error in every command.
    """
    from .validators import non_negative_int

    parser.add_argument(
        "--max-retries",
        type=non_negative_int,
        default=None,
        metavar="N",
        help="retries granted to a task whose worker crashes and to failing store "
        "flushes, before the task is quarantined / the flush error surfaces "
        "(default: the retry policy's built-in budget)",
    )
    parser.add_argument(
        "--fail-fast",
        action="store_true",
        help="stop at the first failed unit of work (first failed run, first "
        "divergent verdict, first violating fuzz batch) instead of completing "
        "the whole matrix",
    )


def add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    """The telemetry knobs shared by ``run``, ``analyze`` and ``fuzz``.

    Telemetry is descriptive, never load-bearing: enabling any of these
    changes no record, baseline or exit code.
    """
    parser.add_argument(
        "--trace",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="write a structured JSONL trace (job/phase spans, per-run events) "
        "to FILE; traced runs produce byte-identical records to untraced ones",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print a metrics snapshot (dispatch/store/supervision counters and "
        "timings) after the job finishes — the same numbers the `stats` "
        "subcommand renders",
    )

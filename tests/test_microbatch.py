"""Batched, concurrent dispatch: a throughput decision, never a semantics one.

The supervisor ships *strided batches* of tasks per worker dispatch, one
batch in flight per worker, with batch sizes it works out itself.  The
contract this file pins down: a parallel sweep whose batches hold several
tasks is **byte-identical** to the serial sweep; a warm store still serves
an identical re-sweep with zero dispatches; supervision stays *per-task*
under batching — a crashed batch is split and re-dispatched so that exactly
the poison task is quarantined, never its innocent batch-mates; and
``parallel=N`` really runs N tasks at once, with deadlines that measure
execution rather than time spent queued.
"""

import time

import pytest

from repro.experiments.cli import main as cli_main
from repro.experiments.runner import POISON_ERROR_PREFIX, Runner
from repro.experiments.scenario import find_scenarios
from repro.jobs import EXIT_CONFIG, ExecutionSession, SweepJob
from repro.resilience import FaultPlan, RetryPolicy, Supervisor
from repro.resilience.faults import FaultState
from repro.resilience.supervisor import MAX_AUTO_BATCH
from repro.store import RunStore

SLICE = [
    "binary+silent+synchronous",
    "quad+silent+synchronous",
    "binary+crash+synchronous",
    "quad+crash+synchronous",
]
SEEDS = [1, 2, 3]  # 12 runs: at parallel=2 the supervisor ships batches of 3

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.0, backoff_max=0.0)


def canonical_results(results):
    return [result.canonical_json() for result in results]


def sweep(seeds=SEEDS, **runner_kwargs):
    with Runner(**runner_kwargs) as runner:
        return canonical_results(runner.iter_runs(find_scenarios(SLICE), seeds)), runner


def _sleep(seconds):
    time.sleep(seconds)
    return seconds


def warm_runner(**runner_kwargs):
    """A parallel runner whose pool is already up, so timings exclude boot."""
    runner = Runner(parallel=2, **runner_kwargs)
    list(runner.iter_tasks(_sleep, [0.0, 0.0]))
    return runner


def batch_indices(parallel, count):
    with Runner(parallel=parallel) as runner:
        tasks = Supervisor(runner, FAST_RETRY, FaultState())._batches([(i, None) for i in range(count)])
    return [[index for index, _item in task.items] for task in tasks]


# ----------------------------------------------------------------------
# Byte-identity with serial
# ----------------------------------------------------------------------
class TestBatchedByteIdentity:
    def test_batched_parallel_sweep_matches_the_serial_sweep(self):
        baseline, serial = sweep()
        parallel, runner = sweep(parallel=2)
        assert parallel == baseline
        assert serial.supervision.dispatched == 0  # serial path never dispatches
        assert runner.supervision.dispatched == len(SLICE) * len(SEEDS)

    def test_batches_are_strided_and_capped(self):
        assert batch_indices(2, 12) == [[0, 4, 8], [1, 5, 9], [2, 6, 10], [3, 7, 11]]
        assert max(len(batch) for batch in batch_indices(2, 1000)) == MAX_AUTO_BATCH

    @pytest.mark.parametrize(
        "parallel, seeds",
        [(4, [1, 2, 3]), (3, [1, 2, 3, 4, 5]), (2, list(range(1, 9)))],
        ids=["unit-batches", "ragged-tail", "batches-of-8"],
    )
    def test_every_batch_shape_matches_the_serial_sweep(self, parallel, seeds):
        baseline, _ = sweep(seeds=seeds)
        batched, runner = sweep(seeds=seeds, parallel=parallel)
        assert batched == baseline, f"parallel={parallel} over {len(seeds)} seeds diverged"
        assert runner.supervision.dispatched == len(SLICE) * len(seeds)


# ----------------------------------------------------------------------
# Batch sizing: the supervisor's own decision
# ----------------------------------------------------------------------
class TestBatchSizing:
    @pytest.mark.parametrize(
        "parallel, count, longest",
        [
            (4, 5, 1),  # tiny sweeps stay unbatched
            (2, 12, 3),
            (3, 20, 3),  # ragged: the last batch is one short
            (4, 100, 100 // 8),  # scales with the sweep: about two batches per worker
            (2, 1000, MAX_AUTO_BATCH),
            (8, 10**4, MAX_AUTO_BATCH),  # capped however large the sweep
        ],
    )
    def test_batches_partition_the_sweep(self, parallel, count, longest):
        batches = batch_indices(parallel, count)
        lengths = [len(batch) for batch in batches]
        assert max(lengths) == longest
        assert max(lengths) - min(lengths) <= 1  # strided batches stay balanced
        assert len(batches) >= min(count, 2 * parallel)  # every worker kept busy
        assert sorted(index for batch in batches for index in batch) == list(range(count))
        assert all(batch == sorted(batch) for batch in batches)  # item order within a batch

    def test_empty_sweep_has_no_batches(self):
        assert batch_indices(2, 0) == []


# ----------------------------------------------------------------------
# Warm store: an identical re-sweep dispatches nothing
# ----------------------------------------------------------------------
class TestWarmStoreUnderBatching:
    def test_second_sweep_executes_zero_runs(self, tmp_path):
        scenarios = find_scenarios(SLICE)
        with RunStore(tmp_path / "runs.db") as store:
            with Runner(parallel=2) as cold:
                first = canonical_results(cold.iter_runs(scenarios, SEEDS, store=store))
            assert cold.supervision.dispatched == len(scenarios) * len(SEEDS)
            with Runner(parallel=2) as warm:
                second = canonical_results(warm.iter_runs(scenarios, SEEDS, store=store))
            assert warm.supervision.dispatched == 0
        assert second == first

    def test_partial_cache_dispatches_only_the_misses(self, tmp_path):
        scenarios = find_scenarios(SLICE)
        with RunStore(tmp_path / "runs.db") as store:
            with Runner() as seeded:
                list(seeded.iter_runs(scenarios[:2], SEEDS, store=store))
            with Runner(parallel=2) as topped_up:
                results = canonical_results(topped_up.iter_runs(scenarios, SEEDS, store=store))
            assert topped_up.supervision.dispatched == 2 * len(SEEDS)
        baseline, _ = sweep()
        assert results == baseline


# ----------------------------------------------------------------------
# Supervision stays per-task inside a batch
# ----------------------------------------------------------------------
class TestBatchSupervision:
    def test_crashed_batch_recovers_every_member(self):
        baseline, _ = sweep()
        plan = FaultPlan(seed=1, worker_crash=(1, 4))
        survived, runner = sweep(parallel=2, retry_policy=FAST_RETRY, fault_plan=plan)
        assert runner.supervision.crashes_detected >= 1
        assert runner.supervision.quarantined == 0
        assert survived == baseline

    @pytest.mark.parametrize("poison", [0, 4, 5])  # first, middle and last of a batch
    def test_poison_quarantines_exactly_the_affected_task(self, poison):
        # One task is poison (crashes on every attempt).  Its whole batch
        # crashes with it, and so may the batch running beside it, but
        # recovery splits lost batches into singletons: the others must
        # complete normally and only the poison task may be quarantined.
        scenarios = find_scenarios(SLICE)
        plan = FaultPlan(poison=(poison,))
        with Runner(parallel=2, retry_policy=FAST_RETRY, fault_plan=plan) as runner:
            results = list(runner.iter_runs(scenarios, SEEDS))
        poisoned = [r for r in results if r.error and r.error.startswith(POISON_ERROR_PREFIX)]
        healthy = [r for r in results if r.completed]
        assert len(results) == len(scenarios) * len(SEEDS)
        assert len(poisoned) == 1
        assert f"after {FAST_RETRY.max_attempts} attempt(s)" in poisoned[0].error
        assert len(healthy) == len(results) - 1
        assert runner.supervision.quarantined == 1
        # The survivors are byte-identical to the fault-free sweep: exactly
        # one baseline record (the quarantined task's) is missing.
        baseline, _ = sweep()
        baseline_set = set(baseline)
        healthy_json = set(canonical_results(healthy))
        assert healthy_json <= baseline_set
        assert len(baseline_set - healthy_json) == 1

    def test_concurrent_crash_is_not_blamed_on_the_other_batch(self):
        # With no retries granted, a task that crashes beside another batch
        # cannot be blamed on the spot: both are re-run in isolation, and
        # only the one that crashes again is quarantined.
        no_retry = RetryPolicy(max_attempts=1, backoff_base=0.0, backoff_max=0.0)
        with Runner(parallel=2, retry_policy=no_retry, fault_plan=FaultPlan(poison=(1,))) as runner:
            results = list(runner.iter_tasks(_sleep, [0.2, 0.0, 0.0, 0.0], on_poison=lambda i, r: r))
        assert [type(result).__name__ for result in results].count("PoisonRecord") == 1
        assert results[0] == 0.2
        assert runner.supervision.quarantined == 1


# ----------------------------------------------------------------------
# Concurrency: --parallel N runs N, deadlines measure execution
# ----------------------------------------------------------------------
class TestConcurrentDispatch:
    def test_two_workers_overlap_sleep_tasks(self):
        with warm_runner() as runner:
            started = time.monotonic()
            results = list(runner.iter_tasks(_sleep, [0.4] * 8))
            elapsed = time.monotonic() - started
        assert results == [0.4] * 8
        assert elapsed < 0.75 * 8 * 0.4, f"8 x 0.4 s tasks at parallel=2 took {elapsed:.2f} s"

    def test_queued_tasks_do_not_trip_the_deadline(self):
        # Each task runs 0.7 s, inside the 1.0 s per-task deadline, but
        # eight of them take ~2.8 s on two workers: a deadline that counted
        # queue time (or shared one per-task deadline across a batch) would
        # report false hangs here and re-run tasks.
        with warm_runner(supervision_deadline=1.0) as runner:
            results = list(runner.iter_tasks(_sleep, [0.7] * 8))
        assert results == [0.7] * 8
        assert runner.supervision.crashes_detected == 0
        assert runner.supervision.retries == 0


# ----------------------------------------------------------------------
# The CLI / session surface
# ----------------------------------------------------------------------
class TestParallelCLI:
    @pytest.mark.parametrize("command", ["run", "analyze", "fuzz"])
    @pytest.mark.parametrize("value", ["0", "-2", "three"])
    def test_parallel_validated_at_parse_time(self, command, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main([command, "--parallel", value])
        assert excinfo.value.code == EXIT_CONFIG
        assert "expected a positive integer" in capsys.readouterr().err

    def test_parallel_cli_sweep_matches_serial_store(self, tmp_path, capsys):
        base = ["run", "--scenario"] + SLICE + ["--seeds", "2", "--quiet"]
        assert cli_main(base + ["--store", str(tmp_path / "serial.db")]) == 0
        assert cli_main(base + ["--parallel", "2", "--store", str(tmp_path / "parallel.db")]) == 0
        capsys.readouterr()
        with RunStore(tmp_path / "serial.db") as serial, RunStore(tmp_path / "parallel.db") as parallel:
            serial_records = sorted(r.canonical_json() for r in serial.iter_records())
            parallel_records = sorted(r.canonical_json() for r in parallel.iter_records())
        assert serial_records == parallel_records
        assert len(serial_records) == len(SLICE) * 2

    def test_parallel_session_sweep_job_matches_serial(self, tmp_path):
        from repro.jobs import select_scenarios, specs_to_payloads

        scenarios = select_scenarios(SLICE)
        job = SweepJob(specs_to_payloads(scenarios), seeds=tuple(SEEDS), collect_records=True)
        with ExecutionSession(parallel=2, store_path=tmp_path / "runs.db") as session:
            outcome = session.submit(job)
            assert session.runner.supervision.dispatched == len(SLICE) * len(SEEDS)
        produced = canonical_results(outcome.records)
        assert produced == canonical_results(Runner().iter_runs(scenarios, SEEDS))

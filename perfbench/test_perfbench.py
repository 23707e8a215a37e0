"""Tests of the benchmark itself: span accounting, wrapping, and the one command."""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import types

import pytest

import hostspeed
from spans import Tracer, layer_of

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def scripted_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_times_sum_to_root_and_same_layer_nesting_counts_once():
    # root[0,10] > x.outer[1,9] > (x.inner[2,4], y.b[5,8] > x.leaf[6,7])
    tracer = Tracer(clock=scripted_clock([0, 1, 2, 4, 5, 6, 7, 8, 9, 10]))
    root = tracer.open("cli.main")
    outer = tracer.open("x.outer")
    tracer.close(tracer.open("x.inner"))
    b = tracer.open("y.b")
    tracer.close(tracer.open("x.leaf"))
    tracer.close(b)
    tracer.close(outer)
    tracer.close(root)

    assert tracer.self_times() == [2, 3, 2, 2, 1]
    assert sum(tracer.self_times()) == tracer.durations()[0] == 10
    # Inclusive durations of layer x sum to 11 > 10; self times never do.
    assert tracer.self_time_by(layer_of) == {"cli": 2, "x": 6, "y": 2}


@pytest.fixture
def program(monkeypatch):
    """A two-module program: ``synthetic`` and a user that aliased its functions."""
    core = types.ModuleType("synthetic")

    def encode(value):
        if isinstance(value, list):
            return "".join(encode(item) for item in value)
        return str(value)

    def numbers(count):
        for number in range(count):
            yield number

    core.encode, core.numbers = encode, numbers
    user = types.ModuleType("synthetic.user")
    user.encode_alias = encode
    monkeypatch.setitem(sys.modules, "synthetic", core)
    monkeypatch.setitem(sys.modules, "synthetic.user", user)
    return core, user


def test_recursive_entry_point_records_one_span_per_outermost_call(program):
    core, user = program
    tracer = Tracer()
    tracer.install("codec.encode", core, "encode", alias_prefix="synthetic")
    assert user.encode_alias([1, [2, 3]]) == "123"
    assert core.encode(4) == "4"
    assert tracer.calls == {"codec.encode": 2}
    assert len(tracer.names) == 2


def test_remove_restores_the_entry_point_and_every_alias(program):
    core, user = program
    original = core.encode
    tracer = Tracer()
    tracer.install("codec.encode", core, "encode", alias_prefix="synthetic")
    assert core.encode is not original and user.encode_alias is core.encode
    tracer.remove()
    assert core.encode is original and user.encode_alias is original


def test_generator_is_timed_per_resumption_not_while_suspended(program):
    core, _ = program
    tracer = Tracer(clock=scripted_clock(range(100)))
    tracer.install("gen.numbers", core, "numbers")
    root = tracer.open("consumer")
    items = []
    for number in core.numbers(3):
        consumer = tracer.open("consumer.work")
        items.append(number)
        tracer.close(consumer)
    tracer.close(root)
    assert items == [0, 1, 2]
    assert tracer.calls["gen.numbers"] == 1
    # Three items plus the final StopIteration, each its own one-tick span;
    # the consumer's work between items lands in its own spans.
    assert tracer.names.count("gen.numbers") == 4
    own = tracer.self_time_by(layer_of)
    assert own["gen"] == 4 and own["consumer"] == tracer.durations()[0] - 4


def test_host_speed_kernel_runs_until_its_share_of_time_is_spent():
    runs = hostspeed.kernels_for(0.25)
    assert sum(wall for wall, _ in runs) >= 0.25
    assert all(wall > 0 and cpu > 0 for wall, cpu in runs)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(pathlib.Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "matrix", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_matrix_workload(trace):
    done = _bench("--workload", "matrix", "--seed", "0", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["attempted"] >= 336 and result["failed"] == 0
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = contract["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in wanted}

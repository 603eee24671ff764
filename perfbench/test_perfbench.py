"""Tests of the benchmark itself, at reduced workload sizes.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.sim.events import EventLoop  # noqa: E402
from tracing import Tracer  # noqa: E402

#: Reduced sizes: each round takes about a second.
SMALL = {"oltp_write": 0.1, "cold_read": 0.1, "proxy_failover": 0.05}


def _round(name: str, seed: int, trace: bool = False) -> dict:
    return run.run_round(name, seed, trace, scale=SMALL[name])


def _simulated(result: dict) -> tuple:
    return (
        result["signature"],
        result["latency"],
        result["attempted"],
        result["refused"],
        result["failed"],
    )


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_fixed_seed_repeats_exactly(name):
    first, second = _round(name, 3), _round(name, 3)
    assert first["errors"] == []
    assert _simulated(first) == _simulated(second)
    assert first["signature"]["events"] > 0


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tracing_does_not_perturb_the_schedule(name):
    untraced, traced = _round(name, 4), _round(name, 4, trace=True)
    assert _simulated(traced) == _simulated(untraced)
    expected = {metric for metric, _unit in layers.PER_LAYER}
    reported = {metric for metric, _unit in layers.UNGATED}
    assert set(traced["layers"]) == expected - reported - {"trace.overhead"}
    assert traced["layers"]["sim.events.self_s"] > 0


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_second_seed_passes_every_check(name):
    assert _round(name, 11)["errors"] == []


def test_client_exceptions_are_counted_or_fail_the_check(monkeypatch):
    from repro.db.instance import WriterInstance

    put, run_clients, calls = WriterInstance.put, workloads.OltpWrite.run, []

    def flaky_put(self, txn, key, value):
        if calls:  # the timed phase has started
            calls.append(key)
            if len(calls) % 10 == 0:
                raise KeyError(key)
        return (yield from put(self, txn, key, value))

    def armed_run(self):
        calls.append(None)
        run_clients(self)

    monkeypatch.setattr(WriterInstance, "put", flaky_put)
    monkeypatch.setattr(workloads.OltpWrite, "run", armed_run)
    result = _round("oltp_write", 5)
    assert result["failed"] > 0
    assert result["errors"] == []

    def broken_rollback(self, txn):
        raise KeyError("rollback")
        yield  # pragma: no cover - makes this a generator

    monkeypatch.setattr(WriterInstance, "rollback", broken_rollback)
    calls.clear()
    result = _round("oltp_write", 5)
    assert any("a client died: KeyError" in e for e in result["errors"])


def test_tracer_restores_originals_and_forwards_generators():
    original = EventLoop.__dict__["step"]

    def echo():
        received = yield "first"
        try:
            yield received
        except KeyError as exc:
            return f"caught {exc.args[0]}"

    with Tracer(lambda: 0.0) as tracer:
        assert EventLoop.__dict__["step"] is not original
        wrapped = tracer._wrap(echo, "echo", "test.layer")
        generator = wrapped()
        assert next(generator) == "first"
        assert generator.send("ping") == "ping"
        with pytest.raises(StopIteration) as stop:
            generator.throw(KeyError("boom"))
        assert stop.value.value == "caught boom"
    assert EventLoop.__dict__["step"] is original
    assert tracer.calls["test.layer"] == 1
    assert tracer.busy["test.layer"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        layers.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_one_result_line(trace):
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", "oltp_write",
        "--seed", "2", "--seconds", "0",
        "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=170, check=False)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    wanted = layers.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        dict(wanted)


def test_fails_without_the_simulator_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in HERE.glob("*.py"):
        shutil.copy(source, bench / source.name)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        check=False,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

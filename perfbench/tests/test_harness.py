"""Self-tests of the benchmark harness: wrappers, span collection, checks.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import hostspeed
import layers
from ingest import OFFERED_SHARE, offered_rate
from layers import TARGETS, install, layer_metrics, uninstall
from spans import SpanRecorder, coverage, self_times

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _square(x: int) -> int:
    return x * x


def _fail() -> None:
    raise KeyError("boom")


def _numbers(n: int):
    total = 0
    for i in range(n):
        sent = yield i
        if sent is not None:
            total += sent
    return total


# -- wrappers -----------------------------------------------------------------------


def test_wrapper_preserves_return_value_and_records_span():
    recorder = SpanRecorder()
    wrapped = recorder.wrap(_square, "t.square", count=lambda a, k, r, b: r)
    assert wrapped(7) == 49
    assert wrapped.__name__ == "_square" and wrapped.__wrapped__ is _square
    [span] = recorder.drain()
    assert span[1] == "t.square" and span[5] == 49 and span[3] >= span[2]


def test_wrapper_preserves_exceptions():
    recorder = SpanRecorder()
    wrapped = recorder.wrap(_fail, "t.fail")
    with pytest.raises(KeyError, match="boom"):
        wrapped()
    assert [s[1] for s in recorder.drain()] == ["t.fail"]
    # The stack unwound: a later call is a root span again.
    recorder.wrap(_square, "t.square")(2)
    assert recorder.drain()[0][4] is None


def test_generator_wrapper_behaves_like_the_generator():
    recorder = SpanRecorder()
    wrapped = recorder.wrap(_numbers, "t.numbers")
    assert list(wrapped(3)) == [0, 1, 2]
    spans = recorder.drain()
    # One span per next(), the last one the StopIteration step.
    assert len(spans) == 4 and sum(s[5] for s in spans) == 3

    gen = wrapped(5)
    assert next(gen) == 0
    assert gen.send(10) == 1
    assert gen.send(5) == 2
    with pytest.raises(StopIteration) as stop:
        while True:
            gen.send(1)
    assert stop.value.value == 18

    gen = wrapped(5)
    next(gen)
    with pytest.raises(ValueError):
        gen.throw(ValueError("into the generator"))
    gen = wrapped(5)
    next(gen)
    gen.close()
    with pytest.raises(StopIteration):
        next(gen)


def test_nested_spans_have_parents_and_self_times():
    recorder = SpanRecorder()
    inner = recorder.wrap(_square, "core.inner")

    def outer_fn():
        return inner(3) + inner(4)

    outer = recorder.wrap(outer_fn, "store.outer")
    assert outer() == 25
    spans = recorder.drain()
    by_name = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
    [root] = by_name["store.outer"]
    assert all(s[4] == root[0] for s in by_name["core.inner"])
    own = self_times(spans)
    children = sum(s[3] - s[2] for s in by_name["core.inner"])
    assert own[(root[6], root[0])] == pytest.approx(root[3] - root[2] - children)
    metrics = layer_metrics(spans, targets=())
    total = root[3] - root[2]
    assert metrics["layer.store.self_s"] + metrics["layer.core.self_s"] == pytest.approx(total)


def test_coverage_is_the_clipped_union():
    assert coverage([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert coverage([(0, 2), (1, 3), (5, 6)], 1.5, 5.5) == pytest.approx(2.0)
    assert coverage([], 0, 1) == 0


# -- installing on the program ---------------------------------------------------------


def test_install_patches_every_binding_and_uninstall_restores():
    import repro.core
    import repro.core.validation
    from repro.queueing import FittedDistribution

    original = repro.core.validation.compare_feature_stats
    frozen = FittedDistribution.__dict__["frozen"]
    recorder = SpanRecorder()
    patches = install(recorder)
    try:
        assert repro.core.compare_feature_stats is repro.core.validation.compare_feature_stats
        assert repro.core.compare_feature_stats is not original
        dist = FittedDistribution("expon", (0.0, 2.0), 0.1, 0.5, -1.0)
        assert dist.frozen.mean() == pytest.approx(2.0)
        assert [s[1] for s in recorder.drain()] == ["queueing.FittedDistribution.frozen"]
    finally:
        uninstall(patches)
    assert repro.core.compare_feature_stats is original
    assert FittedDistribution.__dict__["frozen"] is frozen


def test_every_target_resolves():
    recorder = SpanRecorder()
    patches = install(recorder)
    uninstall(patches)
    patched_names = {p[1] for p in patches}
    for target in TARGETS:
        assert target.attr.rpartition(".")[2] in patched_names, target


# -- forked workers ---------------------------------------------------------------------


def test_spans_from_forked_workers_are_collected(tmp_path, monkeypatch):
    recorder = SpanRecorder(tmp_path)
    monkeypatch.setattr(sys.modules[__name__], "_square", recorder.wrap(_square, "t.square"))
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        assert list(pool.map(sys.modules[__name__]._square, range(6))) == [
            0, 1, 4, 9, 16, 25
        ]
    spans = recorder.drain()
    assert len(spans) == 6
    assert all(s[1] == "t.square" for s in spans)
    assert len({s[6] for s in spans}) >= 1
    assert not list(tmp_path.glob("spans-*.jsonl"))


# -- the rest of the harness -----------------------------------------------------------


def test_offered_rate_is_a_share_of_the_end_capacity():
    # Service time grows 1 ms per commit from 10 ms; slow outliers
    # do not move the estimate.
    latencies = [0.010 + 0.001 * i for i in range(99)]
    latencies[50] = latencies[97] = 1.0
    assert offered_rate(latencies) == pytest.approx(OFFERED_SHARE / (0.010 + 0.001 * 98))
    assert offered_rate([0.02] * 30) == pytest.approx(OFFERED_SHARE / 0.02)


def test_host_speed_scaling_uses_the_ticks_around_an_interval():
    R = hostspeed.REFERENCE_S
    # Ticks at half speed inside 10..12 s, full speed elsewhere.
    ticks = [(t, R) for t in (8.0, 9.0)] + [(10.5, 2 * R), (11.5, 2 * R)] + [(13.0, R)]
    # Inside: two ticks at half speed; nearest outside: R at 9.0 and at
    # 13.0.  The mean speed is 0.75 of the reference.
    wall = 2.0 - 4 * R
    assert hostspeed.scaled(ticks, 10.0, 12.0) == pytest.approx(wall * 0.75)
    # An interval with no tick inside takes its neighbours' speed.
    assert hostspeed.scaled(ticks, 9.5, 10.0) == pytest.approx(0.5 * 0.75)
    # A tick that lost the CPU for 100 ticks' time is one slow sample.
    stalled = [(0.0, R), (0.5, 100 * R), (0.7, R), (2.0, R)]
    assert hostspeed.scaled(stalled, 0.1, 1.0) == pytest.approx(
        (0.9 - 101 * R) * (3 + 0.01) / 4
    )
    # Before the first tick (a process's set-up), only the next one.
    assert hostspeed.scaled(ticks, 7.0, 7.5) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        hostspeed.scaled([], 0.0, 1.0)


def test_sampler_ticks_while_the_program_runs_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler().start()
    try:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            sum(range(1000))
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.ticks) >= 5
    assert all(d > 0 for _, d in sampler.ticks)


def test_spec_names_every_target_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {e["name"] for e in spec["per_layer"]}
    produced = set(layer_metrics([], targets=TARGETS))
    assert per_layer - produced <= {
        n for n in per_layer
        if not n.startswith(tuple(layers.LAYERS)) or n.startswith(("serve.ingest.", "tracing.records."))
        or n == "simulation.host_us_per_event"
    }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gfs-fleet", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

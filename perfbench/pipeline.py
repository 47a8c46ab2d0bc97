"""The batch stages of the paper's loop, driven through ``repro.cli.main``.

One pass runs, in order: ``collect``, ``train``, ``characterize``
(cold), ``characterize`` again (warm), ``validate --model`` and
``plan``, each as an in-process CLI call timed on the host clock and
scaled to reference host speed by the process's sampler
(``hostspeed``).  Some stages run
``REPEATS`` times to give the median more samples: ``collect`` into a
fresh directory each time, the cold ``characterize`` after clearing
the analysis cache.  Every call is one
operation; it fails on a nonzero exit or a failed output check.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import re
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import hostspeed

STAGES = ("collect", "train", "characterize", "characterize_warm", "validate", "plan")
REPEATS = {"collect": 2, "characterize": 3, "characterize_warm": 3, "validate": 2}

_TRAINED = re.compile(r"trained on (\d+) requests")
_DEVIATION = re.compile(
    r"worst feature deviation: ([0-9.]+)%\s+worst latency deviation: ([0-9.]+)%"
)


@dataclass
class CliResult:
    code: int
    #: Wall time of the call.
    seconds: float
    stdout: str
    stderr: str
    start: float
    end: float
    #: ``seconds`` at reference host speed.
    scaled: float


def run_cli(argv: list[str]) -> CliResult:
    """One ``repro`` command in this process, stdout/stderr captured.

    Garbage left by earlier calls is collected first, untimed, so that
    a full collection does not land inside a random later call.  One
    host-speed tick runs right before the call and one right after it,
    so that even a call shorter than a tick interval has its speed.
    """
    import repro.cli

    sampler = hostspeed.start()
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    sampler.tick()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = repro.cli.main(argv)
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else 1
            if not isinstance(stop.code, int):
                print(stop.code, file=sys.stderr)
        except Exception:  # noqa: BLE001 - a crashing stage is a failed operation
            traceback.print_exc()
            code = 1
    end = time.perf_counter()
    sampler.tick()
    return CliResult(
        code, end - start, out.getvalue(), err.getvalue(), start, end,
        sampler.scaled(start, end),
    )


def stream_counts(path: Path) -> dict[str, int]:
    """Records per stream in a shard store or flat dump."""
    from repro.store import ShardStore
    from repro.tracing import load_traces

    source = load_traces(path)
    if isinstance(source, ShardStore):
        return dict(source.counts())
    return dict(source.summary())


def tree_bytes(path: Path) -> int:
    """Bytes of the trace files under ``path`` (analysis caches excluded)."""
    return sum(
        p.stat().st_size
        for p in Path(path).rglob("*")
        if p.is_file() and "_cache" not in p.parts
    )


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class PassSpec:
    """What one pass runs: a collect command and where it writes."""

    collect_argv: list[str]
    collect_out: Path
    model: Path
    #: Check ``ShardStore.verify()`` on the collected store.
    verify_collect: bool = False


@dataclass
class PassResult:
    #: Time of each call of each stage, scaled to reference host speed.
    seconds: dict[str, list[float]] = field(default_factory=dict)
    #: The same calls' raw wall times.
    wall: dict[str, list[float]] = field(default_factory=dict)
    windows: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    #: Values a deterministic program repeats exactly for one seed.
    exact: dict[str, object] = field(default_factory=dict)
    feature_dev_pct: Optional[float] = None
    latency_dev_pct: Optional[float] = None


def run_pass(spec: PassSpec, recorder=None) -> PassResult:
    """Run the six stages once; with a recorder, each stage is a span."""
    result = PassResult()
    spec.model.unlink(missing_ok=True)
    analysis = str(spec.collect_out)
    argvs = {
        "collect": spec.collect_argv,
        "train": ["train", "--in", analysis, "--model", str(spec.model)],
        "characterize": ["characterize", "--in", analysis],
        "characterize_warm": ["characterize", "--in", analysis],
        "validate": ["validate", "--in", analysis, "--model", str(spec.model)],
        "plan": ["plan", "--in", analysis],
    }
    outputs: dict[str, list[CliResult]] = {}
    for stage in STAGES:
        for repeat in range(REPEATS.get(stage, 1)):
            if stage == "collect":
                shutil.rmtree(spec.collect_out, ignore_errors=True)
            elif stage == "characterize" and repeat:
                shutil.rmtree(spec.collect_out / "_cache", ignore_errors=True)
            token = recorder.enter(f"stage.{stage}") if recorder is not None else None
            cli = run_cli(argvs[stage])
            if token is not None:
                recorder.exit(token, end=cli.end)
            outputs.setdefault(stage, []).append(cli)
            result.seconds.setdefault(stage, []).append(cli.scaled)
            result.wall.setdefault(stage, []).append(cli.seconds)
            result.windows.setdefault(stage, []).append((cli.start, cli.end))
            if cli.code != 0:
                result.failures.append(
                    f"{stage} exited {cli.code}: {(cli.stderr or cli.stdout).strip()[-400:]}"
                )
        if result.failures and stage in ("collect", "train"):
            break  # later stages have no input
    if result.failures and "train" not in outputs:
        return result
    _check_pass(spec, outputs, result)
    return result


def _check_pass(
    spec: PassSpec, calls: dict[str, list[CliResult]], result: PassResult
) -> None:
    from repro.store import ShardStore

    fail = result.failures.append
    outputs = {stage: runs[-1] for stage, runs in calls.items()}
    collected = stream_counts(spec.collect_out)
    for stream, n in sorted(collected.items()):
        result.exact[f"tracing.records.{stream}"] = n
    result.exact["collect.bytes"] = tree_bytes(spec.collect_out)
    if spec.verify_collect:
        bad = ShardStore(spec.collect_out).verify()
        if bad:
            fail(f"collect: ShardStore.verify() found corrupt shards {bad}")
    trained = _TRAINED.search(outputs["train"].stdout)
    if trained is None:
        fail("train: no 'trained on N requests' line")
    elif int(trained.group(1)) != collected.get("requests", -1):
        fail(
            f"train: trained on {trained.group(1)} requests, "
            f"collect wrote {collected.get('requests')}"
        )
    if "characterize_warm" in calls:
        profiles = {c.stdout for c in calls["characterize"] + calls["characterize_warm"]}
        if len(profiles) != 1:
            fail("characterize: warm stdout differs from cold")
    if "validate" in outputs:
        deviation = _DEVIATION.search(outputs["validate"].stdout)
        if deviation is None and outputs["validate"].code == 0:
            fail("validate: no deviation line")
        elif deviation is not None:
            result.feature_dev_pct = float(deviation.group(1))
            result.latency_dev_pct = float(deviation.group(2))
    where = str(spec.collect_out.parent)  # differs per run; `train` prints it
    for stage in ("train", "characterize", "validate", "plan"):
        if stage in outputs:
            result.exact[f"{stage}.stdout"] = digest(outputs[stage].stdout.replace(where, "."))

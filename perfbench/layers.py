"""The program's layer boundaries the traced runs wrap, and their metrics.

Each :class:`Target` names one public function, method or property of
a ``repro`` module.  :func:`install` replaces it everywhere it is bound
(the defining class, the defining module and every module that
imported it by name) with a :class:`~spans.SpanRecorder` wrapper;
:func:`uninstall` puts the originals back.  Nothing under ``src/`` is
edited: the wrappers exist only in the benchmark's process and the
processes it forks or starts.

The layer of a metric is the first component of its name, which is the
``repro`` subpackage the target lives in.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from spans import Span, SpanRecorder, self_times

__all__ = ["LAYERS", "TARGETS", "Target", "install", "layer_metrics", "uninstall"]

LAYERS = ("simulation", "datacenter", "tracing", "store", "core", "queueing", "serve")


def _steps_before(args, kwargs) -> int:
    return args[0].steps


def _steps_after(args, kwargs, result, before: int) -> int:
    return args[0].steps - before


def _dir_bytes(directory: Path, skip: tuple[str, ...] = ()) -> int:
    return sum(
        p.stat().st_size
        for p in Path(directory).rglob("*")
        if p.is_file() and p.name not in skip
    )


def _saved_bytes(args, kwargs, result, before) -> int:
    return _dir_bytes(result)


def _shard_bytes(args, kwargs, result, before) -> int:
    return _dir_bytes(args[0].directory, skip=("manifest.json",))


def _is_hit(args, kwargs, result, before) -> int:
    return int(result is not None)


def _length(args, kwargs, result, before) -> int:
    return len(result)


@dataclass(frozen=True)
class Target:
    """One wrapped boundary and the metrics its spans yield.

    Every target yields ``<metric>.s`` (summed span time) and
    ``<metric>.calls`` (span count; one per ``next()`` for a
    generator).  ``count_metric`` sums the per-span count the wrapper
    takes (``complement_metric`` is calls minus that sum).
    """

    module: str
    attr: str
    metric: str
    count: Optional[Callable[..., int]] = None
    before: Optional[Callable[..., Any]] = None
    count_metric: Optional[str] = None
    complement_metric: Optional[str] = None


TARGETS: tuple[Target, ...] = (
    Target(
        "repro.simulation.engine", "Environment.run", "simulation.Environment.run",
        count=_steps_after, before=_steps_before, count_metric="simulation.events",
    ),
    Target("repro.datacenter.fleet", "write_replica_shard", "datacenter.write_replica_shard"),
    Target("repro.datacenter.run", "run_webapp_workload", "datacenter.run_webapp_workload"),
    Target(
        "repro.tracing.store", "save_traces", "tracing.save_traces",
        count=_saved_bytes, count_metric="tracing.save_traces.bytes",
    ),
    Target(
        "repro.tracing.columnar", "records_from_columns",
        "tracing.columnar.records_from_columns",
    ),
    Target("repro.tracing.span", "build_trace_trees", "tracing.build_trace_trees"),
    Target("repro.store.writer", "ShardWriter.write", "store.ShardWriter.write"),
    Target(
        "repro.store.writer", "ShardWriter.finalize", "store.ShardWriter.finalize",
        count=_shard_bytes, count_metric="store.bytes_written",
    ),
    Target(
        "repro.store.shards", "ShardStore.load_shard_stream_columns",
        "store.ShardStore.load_shard_stream_columns",
    ),
    Target(
        "repro.store.shards", "ShardStore.iter_stream", "store.ShardStore.iter_stream",
        count_metric="store.ShardStore.iter_stream.records",
    ),
    Target("repro.store.manifest", "ShardManifest.load", "store.ShardManifest.load"),
    Target("repro.store.analyze", "analyze_shard", "store.analyze_shard"),
    Target("repro.store.analyze", "analyze_source", "store.analyze_source"),
    Target(
        "repro.store.cache", "load_analysis_cache", "store.load_analysis_cache",
        count=_is_hit, count_metric="store.load_analysis_cache.hits",
        complement_metric="store.load_analysis_cache.misses",
    ),
    Target("repro.store.cache", "save_analysis_cache", "store.save_analysis_cache"),
    Target("repro.store.training", "train_per_class", "store.train_per_class"),
    Target("repro.store.training", "fit_request_class", "store.fit_request_class"),
    Target("repro.store.watch", "take_snapshot", "store.take_snapshot"),
    Target(
        "repro.core.profile", "WorkloadProfileBuilder.update_batch",
        "core.WorkloadProfileBuilder.update_batch",
    ),
    Target(
        "repro.core.profile", "WorkloadProfileBuilder.merge",
        "core.WorkloadProfileBuilder.merge",
    ),
    Target(
        "repro.core.profile", "WorkloadProfileBuilder.add_source",
        "core.WorkloadProfileBuilder.add_source",
    ),
    Target(
        "repro.core.validation", "WorkloadFeatureStats.from_source",
        "core.WorkloadFeatureStats.from_source",
    ),
    Target(
        "repro.core.features", "extract_request_features",
        "core.extract_request_features",
        count=_length, count_metric="core.extract_request_features.requests",
    ),
    Target("repro.core.features", "request_feature_columns", "core.request_feature_columns"),
    Target("repro.core.trainer", "KoozaTrainer.fit", "core.KoozaTrainer.fit"),
    Target("repro.core.dependency", "mine_dependency_queue", "core.mine_dependency_queue"),
    Target(
        "repro.core.model", "KoozaModel.synthesize", "core.KoozaModel.synthesize",
        count=_length, count_metric="core.KoozaModel.synthesize.requests",
    ),
    Target("repro.core.replay", "ReplayHarness.replay", "core.ReplayHarness.replay"),
    Target("repro.core.validation", "compare_feature_stats", "core.compare_feature_stats"),
    Target(
        "repro.queueing.fitting", "FittedDistribution.frozen",
        "queueing.FittedDistribution.frozen",
    ),
    Target(
        "repro.queueing.fitting", "FittedDistribution.sample",
        "queueing.FittedDistribution.sample",
    ),
    Target("repro.queueing.fitting", "fit_distribution", "queueing.fit_distribution"),
    Target("repro.queueing.plan", "fit_cluster_model", "queueing.fit_cluster_model"),
    Target("repro.queueing.plan", "plan_sweep", "queueing.plan_sweep"),
    Target("repro.serve.ingest", "IngestSink.write_record", "serve.IngestSink.write_record"),
    Target("repro.serve.ingest", "IngestSink.commit", "serve.IngestSink.commit"),
    Target("repro.serve.daemon", "ServeDaemon.poll_once", "serve.ServeDaemon.poll_once"),
    Target("repro.serve.daemon", "ServeDaemon.checkpoint", "serve.ServeDaemon.checkpoint"),
    Target("repro.serve.watcher", "StoreWatcher.poll", "serve.StoreWatcher.poll"),
    Target("repro.serve.drift", "DriftMonitor.observe", "serve.DriftMonitor.observe"),
    Target("repro.serve.drift", "DriftMonitor.check", "serve.DriftMonitor.check"),
)


#: (owner, attribute name, original value) for every binding replaced.
_Patch = tuple[Any, str, Any]


def _wrap_descriptor(recorder: SpanRecorder, raw: Any, target: Target) -> Any:
    def wrap(fn):
        return recorder.wrap(fn, target.metric, count=target.count, before=target.before)

    if isinstance(raw, property):
        return property(wrap(raw.fget), raw.fset, raw.fdel, raw.__doc__)
    if isinstance(raw, classmethod):
        return classmethod(wrap(raw.__func__))
    if isinstance(raw, staticmethod):
        return staticmethod(wrap(raw.__func__))
    return wrap(raw)


def install(recorder: SpanRecorder, targets=TARGETS) -> list[_Patch]:
    """Wrap every target; returns the patches :func:`uninstall` reverts."""
    patches: list[_Patch] = []
    for target in targets:
        module = importlib.import_module(target.module)
        owner_name, _, name = target.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[name]
            setattr(owner, name, _wrap_descriptor(recorder, raw, target))
            patches.append((owner, name, raw))
            continue
        original = getattr(module, name)
        wrapper = _wrap_descriptor(recorder, original, target)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    patches.append((mod, key, original))
    return patches


def uninstall(patches: list[_Patch]) -> None:
    for owner, name, original in reversed(patches):
        setattr(owner, name, original)


def layer_metrics(spans: list[Span], targets=TARGETS) -> dict[str, float]:
    """Per-target totals and per-layer self time from one set of spans.

    Spans whose name has no target (the benchmark's own stage spans)
    only count as parents: their children's time is subtracted from
    them, never from a layer.
    """
    totals: dict[str, list] = defaultdict(lambda: [0.0, 0, 0])
    for span in spans:
        acc = totals[span[1]]
        acc[0] += span[3] - span[2]
        acc[1] += 1
        acc[2] += span[5]
    out: dict[str, float] = {}
    for target in targets:
        seconds, calls, n = totals.get(target.metric, (0.0, 0, 0))
        out[f"{target.metric}.s"] = seconds
        out[f"{target.metric}.calls"] = calls
        if target.count_metric:
            out[target.count_metric] = n
        if target.complement_metric:
            out[target.complement_metric] = calls - n
    layer_self = dict.fromkeys(LAYERS, 0.0)
    names = {(s[6], s[0]): s[1] for s in spans}
    for key, seconds in self_times(spans).items():
        layer = names[key].split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += seconds
    for layer, seconds in layer_self.items():
        out[f"layer.{layer}.self_s"] = seconds
    return out

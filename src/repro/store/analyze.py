"""One-pass streaming analysis over trace sources, sharded in parallel.

Every source goes through one columnar fold
(:func:`fold_stream_columns`) into the mergeable accumulators
(:class:`~repro.core.WorkloadProfileBuilder` for characterization,
:class:`~repro.core.WorkloadFeatureStats` for validation).  A shard
store folds ONE shard per worker, and the driver merges the
per-shard accumulators in shard-index order.  The stitched merged
``TraceSet`` is never constructed — the property the forbid-stitch
tests pin down — and no worker ever holds more than one shard's
records.

Shard records are shifted by the manifest-derived
:class:`~repro.store.stitch.StitchOffsets` before folding, so every
accumulator sees exactly the timestamps and identifiers the merged
timeline would carry.  The features the statistics consume are
per-shard-exact because a request's records never span shards (each
shard is one replica's complete run); the only cross-shard quantity,
the storage seek seam, is handled inside the seam-aware accumulators.

Per-class validation replays each request class's model with a
deterministic per-class RNG stream (:func:`class_rng`), compares each
class against the streamed original statistics, and additionally
reports the cross-class mix: the union of all per-class synthetics
against the whole original workload.

``repro.core`` is imported lazily inside functions: the core package
pulls in :mod:`repro.datacenter`, whose fleet module imports this
package — a module-level import here would close that cycle.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..simulation import run_sharded
from ..tracing import TraceSource
from ..tracing.store import STREAM_TYPES
from .cache import (
    analysis_key,
    load_analysis_cache,
    save_analysis_cache,
    shard_content_hash,
)
from .shards import (
    ShardStore,
    _shift,  # noqa: F401  (_shift: API)
    shifter_for,
    stream_columns,
)
from .stitch import StitchOffsets

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..core import (
        ValidationReport,
        WorkloadFeatureStats,
        WorkloadProfile,
        WorkloadProfileBuilder,
    )

__all__ = [
    "ClassReport",
    "PerClassValidation",
    "ShardAnalysisTask",
    "SourceAnalysis",
    "analyze_shard",
    "analyze_source",
    "characterize_source",
    "class_rng",
    "class_seed",
    "fold_stream_columns",
    "validate_per_class",
]


def class_seed(seed: int, request_class: str) -> int:
    """A deterministic 31-bit seed derived from a class name.

    Used for the replay harness of one class's synthetic requests, so
    per-class validation is reproducible and classes never share an
    RNG stream regardless of iteration order.
    """
    return (seed * 1000003 + zlib.crc32(request_class.encode())) % (2**31)


def class_rng(seed: int, request_class: str) -> np.random.Generator:
    """The RNG stream used to synthesize one class's requests.

    Seeded with ``[seed, crc32(class)]`` so streams are independent
    across classes and across base seeds — and reproducible by tests
    that re-derive the same generator.
    """
    return np.random.default_rng([seed, zlib.crc32(request_class.encode())])


@dataclass(frozen=True)
class ShardAnalysisTask:
    """One worker's share: fold one shard through the accumulators."""

    directory: str
    shard_index: int
    offsets: StitchOffsets
    window: float = 0.25
    cores: int = 8
    max_quantile_values: Optional[int] = None


def _analysis_columns(stream: str) -> list[str]:
    """Columns the analysis fold reads from one stream.

    The union of what ``WorkloadProfileBuilder.update_batch`` and
    ``request_feature_columns`` read: columnar shards open only these
    ``.bin`` files; jsonl shards decode once and pivot to the same
    subset.  The two ``json`` columns (``extra``, ``annotations``) are
    never requested: no analysis statistic consumes them.
    """
    from ..core.features import FEATURE_COLUMNS
    from ..core.profile import PROFILE_COLUMNS

    return sorted(
        set(PROFILE_COLUMNS[stream]) | set(FEATURE_COLUMNS.get(stream, ()))
    )


def fold_stream_columns(
    columns: dict,
    window: float = 0.25,
    cores: int = 8,
    max_quantile_values: Optional[int] = None,
):
    """The analysis fold: profile and validation statistics from columns.

    ``columns`` maps every stream name to its stitched column dict
    (holding at least :func:`_analysis_columns`).  Returns
    ``(profile_builder, feature_stats, per_class_stats)``.  Every
    source folds through here — one shard of a store at a time in
    :func:`analyze_shard`, any other source whole in
    :func:`analyze_source` — through the vectorized ``update_batch``
    accumulators, so per-record Python dispatch never runs.
    """
    from ..core import (
        WorkloadFeatureStats,
        WorkloadProfileBuilder,
        request_feature_columns,
    )
    from ..tracing.columnar import take_columns

    builder = WorkloadProfileBuilder(
        window=window, cores=cores, max_quantile_values=max_quantile_values
    )
    for stream in STREAM_TYPES:
        builder.update_batch(stream, columns[stream])
    features = request_feature_columns(columns)
    overall = WorkloadFeatureStats.from_feature_columns(features)
    per_class: dict[str, WorkloadFeatureStats] = {}
    klass = features["request_class"]
    for code, name in enumerate(klass.values):
        mask = klass.codes == code
        if mask.any():
            per_class[name] = WorkloadFeatureStats.from_feature_columns(
                take_columns(features, mask)
            )
    return builder, overall, per_class


def analyze_shard(task: ShardAnalysisTask):
    """Worker entry point: accumulate one shard, return the accumulators.

    Returns ``(profile_builder, feature_stats, per_class_stats)``.

    Each stream is loaded as full column arrays (columnar shards serve
    their buffers directly, jsonl shards decode once and pivot),
    shifted in column space by the manifest-derived stitch offsets, and
    folded by :func:`fold_stream_columns` — so analyses over the two
    codecs are byte-identical because they see the identical arrays.
    """
    store = ShardStore(task.directory)
    manifest = next(
        m for m in store.manifests if m.index == task.shard_index
    )
    columns = {
        stream: store.shifted_stream_columns(
            manifest, task.offsets, stream, _analysis_columns(stream)
        )
        for stream in STREAM_TYPES
    }
    return fold_stream_columns(
        columns, task.window, task.cores, task.max_quantile_values
    )


@dataclass
class SourceAnalysis:
    """Everything one streaming pass over a source produces."""

    profile: "WorkloadProfile"
    features: "WorkloadFeatureStats"
    per_class: dict[str, "WorkloadFeatureStats"]
    workers: int = 1
    elapsed_seconds: float = 0.0
    #: Shards restored from the persistent cache / re-folded by workers.
    #: Both stay 0 when caching is off or the source is not a store.
    cache_hits: int = 0
    cache_misses: int = 0


def analyze_source(
    source: TraceSource | str | Path,
    window: float = 0.25,
    cores: int = 8,
    workers: int = 1,
    cache: bool = False,
    max_quantile_values: Optional[int] = None,
) -> SourceAnalysis:
    """One streaming pass: profile + validation statistics for a source.

    A :class:`~repro.store.ShardStore` (or a path to one) fans one
    worker per shard and merges the per-shard accumulators in
    shard-index order — numerically equal to the single-pass fold for
    any worker count.  Any other :class:`~repro.tracing.TraceSource`
    is read as stitched columns (:func:`~repro.store.stream_columns`)
    and folded inline; both go through :func:`fold_stream_columns`.

    With ``cache=True`` (stores only) each shard's folded accumulator
    state is persisted under ``<store>/_cache/<shard>/`` keyed by the
    shard's content hash, its stitch offsets, the accumulator schema
    version and the analysis parameters; matching entries are restored
    instead of re-reading the shard, so re-analysis after an append
    spawns workers only for the new round.  Cached and fresh results
    are merged in shard-index order, and JSON snapshots round-trip
    floats exactly, so the warm result equals the cold one.

    ``max_quantile_values`` bounds every exact-quantile buffer (see
    :class:`~repro.stats.ExactQuantiles`); it participates in the cache
    key.
    """
    from ..core import WorkloadFeatureStats, WorkloadProfileBuilder

    if isinstance(source, (str, Path)):
        from ..tracing import load_traces

        source = load_traces(source)
    start = time.perf_counter()
    cache_hits = cache_misses = 0
    if isinstance(source, ShardStore):
        key = analysis_key(
            "profile",
            {
                "window": window,
                "cores": cores,
                "max_quantile_values": max_quantile_values,
            },
        )
        cached: dict[int, tuple] = {}
        pending: list[tuple] = []  # (manifest, offsets, content_hash)
        for manifest, offsets in zip(source.manifests, source.offsets()):
            if not cache:
                pending.append((manifest, offsets, None))
                continue
            shard_dir = source.shard_dir(manifest)
            content_hash = shard_content_hash(shard_dir)
            entry = load_analysis_cache(
                source.directory,
                shard_dir.name,
                key,
                content_hash,
                offsets,
                codec=manifest.codec,
            )
            if entry is not None:
                cached[manifest.index] = entry
                cache_hits += 1
            else:
                pending.append((manifest, offsets, content_hash))
                cache_misses += 1
        tasks = [
            ShardAnalysisTask(
                str(source.directory),
                manifest.index,
                offsets,
                window,
                cores,
                max_quantile_values,
            )
            for manifest, offsets, _ in pending
        ]
        results = run_sharded(analyze_shard, tasks, workers)
        fresh: dict[int, tuple] = {}
        for (manifest, offsets, content_hash), result in zip(pending, results):
            fresh[manifest.index] = result
            if cache:
                shard_builder, shard_features, shard_classes = result
                save_analysis_cache(
                    source.directory,
                    source.shard_dir(manifest).name,
                    key,
                    content_hash,
                    offsets,
                    shard_builder,
                    shard_features,
                    shard_classes,
                    compress=manifest.compress,
                    codec=manifest.codec,
                )
        builder = WorkloadProfileBuilder(
            window=window, cores=cores, max_quantile_values=max_quantile_values
        )
        features = WorkloadFeatureStats()
        per_class: dict[str, WorkloadFeatureStats] = {}
        for manifest in source.manifests:
            shard_builder, shard_features, shard_classes = (
                cached[manifest.index]
                if manifest.index in cached
                else fresh[manifest.index]
            )
            builder.merge(shard_builder)
            features.merge(shard_features)
            for cls, stats in shard_classes.items():
                if cls in per_class:
                    per_class[cls].merge(stats)
                else:
                    per_class[cls] = stats
    else:
        columns = {
            stream: stream_columns(source, stream, _analysis_columns(stream))
            for stream in STREAM_TYPES
        }
        builder, features, per_class = fold_stream_columns(
            columns, window, cores, max_quantile_values
        )
    elapsed = time.perf_counter() - start
    return SourceAnalysis(
        profile=builder.profile(),
        features=features,
        per_class=dict(sorted(per_class.items())),
        workers=workers,
        elapsed_seconds=elapsed,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
    )


def characterize_source(
    source: TraceSource | str | Path,
    window: float = 0.25,
    cores: int = 8,
    workers: int = 1,
    cache: bool = False,
    max_quantile_values: Optional[int] = None,
) -> "WorkloadProfile":
    """Streaming characterization of any trace source.

    Equal to ``WorkloadProfile.from_traces`` on the materialized merge
    (see ``docs/streaming_analysis.md`` for the tolerance contract)
    without ever building it.  ``cache=True`` enables the persistent
    per-shard cache for store sources (see :func:`analyze_source`).
    """
    return analyze_source(
        source,
        window=window,
        cores=cores,
        workers=workers,
        cache=cache,
        max_quantile_values=max_quantile_values,
    ).profile


@dataclass
class ClassReport:
    """Per-class Table-2 outcome (or why the class was skipped)."""

    request_class: str
    n_original: int
    n_synthetic: int = 0
    report: Optional["ValidationReport"] = None
    error: Optional[str] = None


@dataclass
class PerClassValidation:
    """Per-class replay validation plus the cross-class mix."""

    classes: list[ClassReport] = field(default_factory=list)
    #: The union of all per-class synthetics vs the whole original
    #: workload — the joint fidelity a mixed deployment would see.
    mix: Optional["ValidationReport"] = None
    workers: int = 1
    elapsed_seconds: float = 0.0
    #: Analysis-cache outcome of the underlying streaming pass (both 0
    #: when caching was off or a precomputed analysis was supplied).
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def n_validated(self) -> int:
        return sum(1 for c in self.classes if c.report is not None)

    @property
    def worst_feature_deviation_pct(self) -> float:
        worst = [
            c.report.worst_feature_deviation_pct
            for c in self.classes
            if c.report is not None
        ]
        if not worst:
            raise ValueError("no class produced a validation report")
        return max(worst)

    def to_table(self) -> str:
        """One summary row per class, plus the mix row."""
        lines = [
            f"{'class':>16} | {'n(o/s)':>11} | {'feat dev%':>9} | "
            f"{'lat dev%':>8} | {'KS':>6} | {'profiles':>8}"
        ]
        lines.append("-" * len(lines[0]))

        def row(name: str, n_o: int, n_s: int, report) -> str:
            return (
                f"{name:>16} | {n_o:>5}/{n_s:<5} | "
                f"{report.worst_feature_deviation_pct:>9.2f} | "
                f"{report.worst_latency_deviation_pct:>8.2f} | "
                f"{report.latency_ks:>6.3f} | {len(report.profiles):>8}"
            )

        for c in self.classes:
            if c.report is not None:
                lines.append(row(c.request_class, c.n_original, c.n_synthetic, c.report))
            else:
                lines.append(
                    f"{c.request_class:>16} | {c.n_original:>5}/{c.n_synthetic:<5} | "
                    f"skipped: {c.error}"
                )
        if self.mix is not None:
            lines.append(
                row("<mix>", self.mix.n_original, self.mix.n_synthetic, self.mix)
            )
        return "\n".join(lines)


def validate_per_class(
    source: TraceSource | str | Path,
    models: Optional[dict] = None,
    config=None,
    seed: int = 42,
    min_profile_count: int = 5,
    min_requests: int = 16,
    window: float = 0.25,
    cores: int = 8,
    workers: int = 1,
    analysis: Optional[SourceAnalysis] = None,
    cache: bool = False,
    max_quantile_values: Optional[int] = None,
) -> PerClassValidation:
    """Replay each class's model and grade it against the streamed original.

    ``models`` maps request class to a trained
    :class:`~repro.core.KoozaModel`; when omitted, per-class models are
    trained from ``source`` first (fanned over ``workers`` for a shard
    store).  Each class synthesizes as many requests as the original
    side contributed feature vectors, using :func:`class_rng` so the
    result is independent of class iteration order.  Classes whose
    original or synthetic side is too thin are reported as skipped,
    not raised.

    Pass a precomputed ``analysis`` to reuse one streaming pass for
    characterization and validation.  ``cache=True`` enables both the
    per-shard analysis cache and the per-class model cache for store
    sources (see :func:`analyze_source` and
    :func:`repro.store.training.train_per_class`).
    """
    from ..core import ReplayHarness, WorkloadFeatureStats, compare_feature_stats

    start = time.perf_counter()
    if isinstance(source, (str, Path)):
        from ..tracing import load_traces

        source = load_traces(source)
    if analysis is None:
        analysis = analyze_source(
            source,
            window=window,
            cores=cores,
            workers=workers,
            cache=cache,
            max_quantile_values=max_quantile_values,
        )
    if models is None:
        from .training import train_per_class

        fit = train_per_class(
            source,
            config,
            workers=workers,
            min_requests=min_requests,
            cache=cache,
        )
        models = fit.models
    result = PerClassValidation(
        workers=workers,
        cache_hits=analysis.cache_hits,
        cache_misses=analysis.cache_misses,
    )
    synthetic_mix = WorkloadFeatureStats()
    for cls in sorted(analysis.per_class):
        original = analysis.per_class[cls]
        if cls not in models:
            result.classes.append(
                ClassReport(cls, original.n, error="no model for class")
            )
            continue
        synthetic = models[cls].synthesize(original.n, class_rng(seed, cls))
        replayed = ReplayHarness(seed=class_seed(seed + 1, cls)).replay(synthetic)
        stats = WorkloadFeatureStats.from_source(replayed)
        synthetic_mix.merge(stats)
        try:
            report = compare_feature_stats(
                original, stats, min_profile_count=min_profile_count
            )
        except ValueError as error:
            result.classes.append(
                ClassReport(cls, original.n, stats.n, error=str(error))
            )
            continue
        result.classes.append(ClassReport(cls, original.n, stats.n, report))
    if synthetic_mix.n:
        try:
            result.mix = compare_feature_stats(
                analysis.features,
                synthetic_mix,
                min_profile_count=min_profile_count,
            )
        except ValueError:
            result.mix = None
    result.elapsed_seconds = time.perf_counter() - start
    return result

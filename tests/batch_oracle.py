"""Record-by-record reference implementations of the analysis fold.

The library computes request features, workload profiles and Table-2
comparisons through one columnar fold
(:func:`repro.core.request_feature_columns` and the ``update_batch``
accumulators).  This module keeps the straightforward per-record
definitions of the same quantities — Python loops over
``iter_records`` and plain numpy reductions over materialized lists —
so the equivalence tests compare the fold against an independent
implementation rather than against itself.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    CpuSummary,
    MemorySummary,
    NetworkSummary,
    ProfileComparison,
    ProfileFeatureStats,
    RequestFeatures,
    RequestSummary,
    StorageSummary,
    ValidationReport,
    WorkloadFeatureStats,
    WorkloadProfile,
    profile_key,
)
from repro.core.profile import _MIN_PATTERN_WINDOWS
from repro.stats import (
    classify_utilization_pattern,
    cross_correlation,
    ks_two_sample,
)
from repro.tracing import READ, as_trace_set

__all__ = [
    "add_feature",
    "add_record",
    "compare_workloads",
    "extract_request_features",
    "feature_stats",
    "profile_from_traces",
]

_CONTROL_SERVERS = ("master",)


def extract_request_features(source) -> list[RequestFeatures]:
    """Per-request features joined record by record on the request id."""
    storage_by_request: dict[int, list] = {}
    for r in source.iter_records("storage"):
        storage_by_request.setdefault(r.request_id, []).append(r)
    memory_by_request: dict[int, list] = {}
    for r in source.iter_records("memory"):
        memory_by_request.setdefault(r.request_id, []).append(r)
    cpu_by_request: dict[int, list] = {}
    for r in source.iter_records("cpu"):
        if r.server not in _CONTROL_SERVERS:
            cpu_by_request.setdefault(r.request_id, []).append(r)
    network_by_request: dict[int, list] = {}
    for r in source.iter_records("network"):
        if r.server not in _CONTROL_SERVERS:
            network_by_request.setdefault(r.request_id, []).append(r)

    completed = (
        r
        for r in source.iter_records("requests")
        if r.completion_time > r.arrival_time
    )
    features = []
    for record in completed:
        rid = record.request_id
        storage = sorted(
            storage_by_request.get(rid, []), key=lambda r: r.timestamp
        )
        memory = sorted(memory_by_request.get(rid, []), key=lambda r: r.timestamp)
        cpu = cpu_by_request.get(rid, [])
        network = network_by_request.get(rid, [])
        if not storage or not memory or not cpu or not network:
            continue
        lookup = sum(r.busy_seconds for r in cpu if r.phase == "lookup")
        aggregate = sum(r.busy_seconds for r in cpu if r.phase != "lookup")
        features.append(
            RequestFeatures(
                request_id=rid,
                request_class=record.request_class,
                server=record.server,
                arrival_time=record.arrival_time,
                latency=record.latency,
                network_bytes=max(r.size_bytes for r in network),
                cpu_lookup_busy=lookup,
                cpu_aggregate_busy=aggregate,
                memory_op=memory[0].op,
                memory_bytes=sum(r.size_bytes for r in memory),
                memory_bank=memory[0].bank,
                storage_op=storage[0].op,
                storage_bytes=sum(r.size_bytes for r in storage),
                storage_lbn=storage[0].lbn,
            )
        )
    features.sort(key=lambda f: f.arrival_time)

    # Seek deltas between consecutive requests on the same server.
    block = 4096
    last_end: dict[str, int] = {}
    for f in features:
        blocks = max(1, -(-f.storage_bytes // block))
        if f.server in last_end:
            f.storage_delta = f.storage_lbn - last_end[f.server]
        f.storage_delta = int(f.storage_delta)
        last_end[f.server] = f.storage_lbn + blocks
    return features


def profile_from_traces(source, window: float = 0.25, cores: int = 8) -> WorkloadProfile:
    """Characterize a materialized trace set with the batch numpy helpers."""
    from repro.breadth import NetworkTrafficModel, StorageProfile, utilization_series
    from repro.stats import index_of_dispersion, interarrival_cov, peak_to_mean

    traces = as_trace_set(source)
    storage = None
    if len(traces.storage) >= 2:
        sp = StorageProfile.characterize(traces.storage)
        storage = StorageSummary(
            n_ios=sp.n_ios,
            read_fraction=sp.read_fraction,
            mean_size=sp.mean_size,
            p95_size=sp.p95_size,
            sequential_fraction=sp.sequential_fraction,
            mean_abs_seek=sp.mean_abs_seek,
            mean_queue_depth=sp.mean_queue_depth,
            mean_interarrival=sp.mean_interarrival,
        )
    cpu = None
    if traces.cpu:
        series = utilization_series(
            traces.cpu, window=window, cores=cores, origin=0.0
        )
        cpu = CpuSummary(
            n_bursts=len(traces.cpu),
            n_windows=int(series.size),
            mean_utilization=float(series.mean()),
            peak_utilization=float(series.max()),
            pattern=(
                classify_utilization_pattern(series)
                if series.size >= _MIN_PATTERN_WINDOWS
                else None
            ),
        )
    network = None
    arrivals = NetworkTrafficModel._arrival_records(traces.network)
    if len(arrivals) >= 2:
        times = np.array([r.timestamp for r in arrivals])
        span = float(times[-1] - times[0])
        gaps = np.diff(times)
        positive = gaps[gaps > 0]
        cov = float(interarrival_cov(positive)) if positive.size >= 2 else None
        try:
            idc = float(index_of_dispersion(times, window, origin=0.0))
            ptm = float(peak_to_mean(times, window, origin=0.0))
        except ValueError:
            idc = ptm = None
        network = NetworkSummary(
            n_arrivals=len(arrivals),
            mean_rate=len(arrivals) / span if span > 0 else 0.0,
            interarrival_cov=cov,
            index_of_dispersion=idc,
            peak_to_mean=ptm,
            mean_size=float(np.mean([r.size_bytes for r in arrivals])),
        )
    memory = None
    if traces.memory:
        memory = MemorySummary(
            n_accesses=len(traces.memory),
            read_fraction=float(
                np.mean([1.0 if r.op == READ else 0.0 for r in traces.memory])
            ),
            mean_size=float(np.mean([r.size_bytes for r in traces.memory])),
        )
    requests = None
    completed = traces.completed_requests()
    if completed:
        latencies = [r.latency for r in completed]
        requests = RequestSummary(
            n_requests=len(completed),
            mean_latency=float(np.mean(latencies)),
            p95_latency=float(np.percentile(latencies, 95)),
        )
    return WorkloadProfile(
        window=window,
        cores=cores,
        extent=traces.extent(),
        classes=traces.classes(),
        storage=storage,
        cpu=cpu,
        network=network,
        memory=memory,
        requests=requests,
    )


def add_record(builder, stream: str, record) -> None:
    """Fold one record into a ``WorkloadProfileBuilder``."""
    if stream == "storage":
        builder.storage_n += 1
        if record.op == READ:
            builder.storage_reads += 1
        builder.storage_sizes.add(record.size_bytes)
        builder.storage_seeks.add(record.lbn, record.size_bytes)
        builder.storage_queue_sum += record.queue_depth
        builder.storage_times.add(record.timestamp)
        builder.max_extent = max(builder.max_extent, record.timestamp)
    elif stream == "cpu":
        builder.cpu_n += 1
        builder.cpu_busy.add(
            record.timestamp,
            weight=record.busy_seconds,
            advance=record.busy_seconds,
        )
        builder.max_extent = max(builder.max_extent, record.timestamp)
    elif stream == "network":
        if record.direction == "rx":
            builder.network_n += 1
            builder.network_size_sum += record.size_bytes
            builder.network_times.add(record.timestamp)
            builder.network_counts.add(record.timestamp)
        builder.max_extent = max(builder.max_extent, record.timestamp)
    elif stream == "memory":
        builder.memory_n += 1
        if record.op == READ:
            builder.memory_reads += 1
        builder.memory_size_sum += record.size_bytes
        builder.max_extent = max(builder.max_extent, record.timestamp)
    elif stream == "requests":
        builder.max_extent = max(
            builder.max_extent, record.arrival_time, record.completion_time
        )
        if record.completion_time > record.arrival_time:
            builder.latencies.add(record.latency)
            builder.class_counts.add(record.request_class)
    elif stream == "spans":
        builder.max_extent = max(builder.max_extent, record.start)
        if record.end == record.end:  # not NaN
            builder.max_extent = max(builder.max_extent, record.end)
    else:
        raise ValueError(f"unknown stream {stream!r}")


def add_feature(stats: WorkloadFeatureStats, f: RequestFeatures) -> None:
    """Fold one request's features into a ``WorkloadFeatureStats``."""
    key = profile_key(f)
    if key not in stats.profiles:
        stats.profiles[key] = ProfileFeatureStats()
    profile = stats.profiles[key]
    profile.network_bytes.add(f.network_bytes)
    profile.cpu_utilization.add(f.cpu_utilization)
    profile.memory_bytes.add(f.memory_bytes)
    profile.storage_bytes.add(f.storage_bytes)
    profile.latency.add(f.latency)
    profile.memory_ops.add(f.memory_op)
    profile.storage_ops.add(f.storage_op)
    stats.latencies.add(f.latency)
    stats.joint.add(f.network_bytes, f.storage_bytes)
    stats.n += 1


def feature_stats(features) -> WorkloadFeatureStats:
    """Fresh statistics folded feature by feature."""
    stats = WorkloadFeatureStats()
    for f in features:
        add_feature(stats, f)
    return stats


def _modal_op(ops: list[str]) -> str:
    values, counts = np.unique(ops, return_counts=True)
    return str(values[np.argmax(counts)])


def compare_workloads(original, synthetic, min_profile_count: int = 5) -> ValidationReport:
    """Table-2 report from per-profile feature lists."""
    orig = extract_request_features(original)
    synth = extract_request_features(synthetic)
    if not orig or not synth:
        raise ValueError("both trace sets must contain complete requests")

    orig_by_profile: dict[tuple, list[RequestFeatures]] = {}
    for f in orig:
        orig_by_profile.setdefault(profile_key(f), []).append(f)
    synth_by_profile: dict[tuple, list[RequestFeatures]] = {}
    for f in synth:
        synth_by_profile.setdefault(profile_key(f), []).append(f)

    profiles = []
    for key in sorted(set(orig_by_profile) & set(synth_by_profile)):
        o, s = orig_by_profile[key], synth_by_profile[key]
        if len(o) < min_profile_count or len(s) < min_profile_count:
            continue
        modal_mem_op = _modal_op([f.memory_op for f in o])
        modal_sto_op = _modal_op([f.storage_op for f in o])
        profiles.append(
            ProfileComparison(
                profile=key,
                n_original=len(o),
                n_synthetic=len(s),
                network_bytes=(
                    float(np.mean([f.network_bytes for f in o])),
                    float(np.mean([f.network_bytes for f in s])),
                ),
                cpu_utilization=(
                    float(np.mean([f.cpu_utilization for f in o])),
                    float(np.mean([f.cpu_utilization for f in s])),
                ),
                memory_bytes=(
                    float(np.mean([f.memory_bytes for f in o])),
                    float(np.mean([f.memory_bytes for f in s])),
                ),
                storage_bytes=(
                    float(np.mean([f.storage_bytes for f in o])),
                    float(np.mean([f.storage_bytes for f in s])),
                ),
                latency=(
                    float(np.mean([f.latency for f in o])),
                    float(np.mean([f.latency for f in s])),
                ),
                latency_p95=(
                    float(np.percentile([f.latency for f in o], 95)),
                    float(np.percentile([f.latency for f in s], 95)),
                ),
                memory_op_match=float(
                    np.mean([f.memory_op == modal_mem_op for f in s])
                ),
                storage_op_match=float(
                    np.mean([f.storage_op == modal_sto_op for f in s])
                ),
            )
        )
    if not profiles:
        raise ValueError("no common profiles with enough requests to compare")

    ks, pvalue = ks_two_sample(
        [f.latency for f in orig], [f.latency for f in synth]
    )
    return ValidationReport(
        profiles=profiles,
        latency_ks=ks,
        latency_ks_pvalue=pvalue,
        joint_correlation_original=cross_correlation(
            [f.network_bytes for f in orig], [f.storage_bytes for f in orig]
        ),
        joint_correlation_synthetic=cross_correlation(
            [f.network_bytes for f in synth], [f.storage_bytes for f in synth]
        ),
        n_original=len(orig),
        n_synthetic=len(synth),
    )

"""Every trace source folds through one columnar analysis path.

Feature extraction, characterization and validation statistics are
computed from column dicts whatever the source: an in-memory
``TraceSet``, a flat dump or a shard store.  These tests pin that
path against the record-by-record reference in ``tests/batch_oracle.py``
and against itself across source kinds: the same traces must give the
same features, the same analysis state and the same trained model,
byte for byte.
"""

import json

import pytest

from repro.core import KoozaTrainer, extract_request_features, model_to_dict
from repro.datacenter import FleetSpec, collect_fleet_to_store, run_webapp_workload
from repro.store import ShardStore, analyze_source
from repro.tracing import (
    READ,
    WRITE,
    CpuRecord,
    FlatTraceDump,
    MemoryRecord,
    NetworkRecord,
    RequestRecord,
    Span,
    StorageRecord,
    TraceSet,
    save_traces,
)
from tests import batch_oracle as oracle


def _store(directory, replicas, codec="jsonl", app="gfs"):
    collect_fleet_to_store(
        FleetSpec(app=app, replicas=replicas, seed=13, n_requests=70),
        directory=directory,
        codec=codec,
    )
    return ShardStore(directory)


@pytest.fixture(scope="module")
def two_shard_store(tmp_path_factory):
    return _store(tmp_path_factory.mktemp("two-shard"), replicas=2)


@pytest.fixture(scope="module")
def one_shard_store(tmp_path_factory):
    return _store(tmp_path_factory.mktemp("one-shard"), replicas=1)


def _hand_built() -> TraceSet:
    """Six requests on two servers, exercising every extraction rule."""
    t = TraceSet()
    # 1: complete on s0; storage records out of timestamp order, memory
    # records tied on timestamp (stream order breaks the tie), a master
    # cpu/network record that must not count, no aggregate cpu phase.
    t.requests.append(RequestRecord(1, "read", "s0", 0.0, 0.5))
    t.storage.append(StorageRecord(1, "s0", 0.3, 900, 5000, READ))
    t.storage.append(StorageRecord(1, "s0", 0.2, 100, 4096, WRITE))
    t.memory.append(MemoryRecord(1, "s0", 0.1, 3, 512, WRITE))
    t.memory.append(MemoryRecord(1, "s0", 0.1, 5, 256, READ))
    t.cpu.append(CpuRecord(1, "s0", 0.05, 0.01, "lookup"))
    t.cpu.append(CpuRecord(1, "s0", 0.06, 0.02, "lookup"))
    t.cpu.append(CpuRecord(1, "master", 0.01, 0.5, "aggregate"))
    t.network.append(NetworkRecord(1, "s0", 0.0, 300, "rx"))
    t.network.append(NetworkRecord(1, "s0", 0.4, 700, "tx"))
    t.network.append(NetworkRecord(1, "master", 0.0, 9000, "rx"))
    # 2: incomplete (cut off at simulation end) — dropped.
    t.requests.append(RequestRecord(2, "read", "s0", 0.6))
    t.storage.append(StorageRecord(2, "s0", 0.7, 50, 4096, READ))
    t.memory.append(MemoryRecord(2, "s0", 0.7, 1, 64, READ))
    t.cpu.append(CpuRecord(2, "s0", 0.7, 0.01, "lookup"))
    t.network.append(NetworkRecord(2, "s0", 0.6, 100, "rx"))
    # 3: complete but missing its memory record — dropped.
    t.requests.append(RequestRecord(3, "write", "s1", 0.8, 1.0))
    t.storage.append(StorageRecord(3, "s1", 0.85, 70, 8192, WRITE))
    t.cpu.append(CpuRecord(3, "s1", 0.82, 0.01, "aggregate"))
    t.network.append(NetworkRecord(3, "s1", 0.8, 200, "rx"))
    # 4 and 5: s0 again, with tied arrivals (requests-stream order
    # breaks the tie); both seek from the previous s0 request's end.
    for rid, lbn in ((4, 2000), (5, 40)):
        t.requests.append(RequestRecord(rid, "write", "s0", 1.2, 1.5))
        t.storage.append(StorageRecord(rid, "s0", 1.3, lbn, 4097, WRITE))
        t.memory.append(MemoryRecord(rid, "s0", 1.25, 2, 128, WRITE))
        t.cpu.append(CpuRecord(rid, "s0", 1.21, 0.03, "aggregate"))
        t.network.append(NetworkRecord(rid, "s0", 1.2, 4096, "rx"))
    # 6: the only complete request on s1 — its seek gap stays 0.
    t.requests.append(RequestRecord(6, "read", "s1", 1.1, 1.4))
    t.storage.append(StorageRecord(6, "s1", 1.15, 10, 4096, READ))
    t.memory.append(MemoryRecord(6, "s1", 1.12, 7, 64, READ))
    t.cpu.append(CpuRecord(6, "s1", 1.11, 0.01, "lookup"))
    t.cpu.append(CpuRecord(6, "s1", 1.13, 0.02, "aggregate"))
    t.network.append(NetworkRecord(6, "s1", 1.1, 64, "rx"))
    return t


def _assert_features_match_oracle(source):
    features = extract_request_features(source)
    reference = oracle.extract_request_features(source)
    assert features, "the source must yield complete requests"
    assert len(features) == len(reference)
    for got, want in zip(features, reference):
        assert got == want
        assert got.cpu_utilization == want.cpu_utilization
        assert type(got.storage_delta) is int
        assert type(got.memory_bank) is int
    return features


def test_features_match_oracle_on_hand_built_traces():
    features = _assert_features_match_oracle(_hand_built())
    assert [f.request_id for f in features] == [1, 6, 4, 5]
    first = features[0]
    assert (first.storage_op, first.storage_lbn, first.storage_bytes) == (
        WRITE, 100, 9096,
    )
    assert (first.memory_op, first.memory_bank) == (WRITE, 3)
    assert first.network_bytes == 700
    assert first.cpu_lookup_busy == pytest.approx(0.03)
    assert first.cpu_aggregate_busy == 0
    # 9096 bytes is three 4 KiB blocks: request 1 ends at lbn 103.
    deltas = {f.request_id: f.storage_delta for f in features}
    assert deltas == {1: 0, 6: 0, 4: 2000 - 103, 5: 40 - (2000 + 2)}


def test_profile_matches_oracle_on_hand_built_traces():
    traces = _hand_built()
    # A span outliving every record sets the timeline's extent.
    traces.spans.append(Span(6, 1, None, "flush", "s1", 1.1, 2.5))
    profile = analyze_source(traces).profile
    assert profile.extent == 2.5
    assert profile == oracle.profile_from_traces(traces)


def test_features_match_oracle_on_gfs_with_master_records(two_shard_store):
    merged = two_shard_store.merged()
    assert any(r.server == "master" for r in merged.cpu)
    features = _assert_features_match_oracle(merged)
    assert any(f.storage_delta for f in features)
    assert len({f.cpu_lookup_busy for f in features}) > 1


def test_features_match_oracle_on_webapp():
    features = _assert_features_match_oracle(
        run_webapp_workload(n_requests=120, seed=9)
    )
    assert len({f.memory_bank for f in features}) > 1


@pytest.mark.parametrize("codec", ["jsonl", "columnar"])
def test_features_match_oracle_on_a_stitched_store(tmp_path, codec):
    store = _store(tmp_path / codec, replicas=2, codec=codec)
    features = _assert_features_match_oracle(store)
    # The stitched read equals the features of the materialized merge.
    assert features == extract_request_features(store.merged())


def _analysis_json(analysis):
    return (
        json.dumps(analysis.features.state()),
        {cls: json.dumps(s.state()) for cls, s in analysis.per_class.items()},
    )


def test_analysis_is_identical_across_source_kinds(one_shard_store, tmp_path):
    traces = one_shard_store.merged()
    save_traces(traces, tmp_path / "flat")
    sources = {
        "traceset": traces,
        "flat": FlatTraceDump(tmp_path / "flat"),
        "store": one_shard_store,
    }
    analyses = {name: analyze_source(s) for name, s in sources.items()}
    reference = analyses["store"]
    assert reference.profile == oracle.profile_from_traces(traces)
    features = oracle.extract_request_features(traces)
    expected = {"<all>": oracle.feature_stats(features)}
    for cls in {f.request_class for f in features}:
        expected[cls] = oracle.feature_stats(
            f for f in features if f.request_class == cls
        )
    got = {"<all>": reference.features, **reference.per_class}
    assert sorted(got) == sorted(expected)
    for cls, stats in got.items():
        assert stats.n == expected[cls].n, cls
        assert sorted(stats.profiles) == sorted(expected[cls].profiles), cls
        assert (
            stats.latencies.array().tolist()
            == expected[cls].latencies.array().tolist()
        ), cls
    for name, analysis in analyses.items():
        assert analysis.profile == reference.profile, name
        assert _analysis_json(analysis) == _analysis_json(reference), name


def test_model_from_flat_dump_equals_model_from_its_store(
    two_shard_store, tmp_path
):
    two_shard_store.save_merged(tmp_path / "flat")
    from_store = KoozaTrainer().fit(two_shard_store)
    from_flat = KoozaTrainer().fit(FlatTraceDump(tmp_path / "flat"))
    assert json.dumps(model_to_dict(from_flat), sort_keys=True) == json.dumps(
        model_to_dict(from_store), sort_keys=True
    )

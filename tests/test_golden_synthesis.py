"""Golden synthesis output: validate/plan are byte-pinned across sampler changes.

``KoozaModel.synthesize`` is the hot path of ``repro validate`` and
``repro plan``: every synthetic request draws an interarrival from the
fitted arrival distribution and walks or samples the subsystem models.
Rewriting those samplers for speed is only allowed if they consume the
identical bit-generator sequence, so these tests pin

* the sha256 of the stdout (and exit code) of ``validate --model``,
  ``validate --per-class`` and ``plan`` (text and ``--json``) on small
  seed-7 gfs and webapp stores,
* a canonical dump of ``model.synthesize(n, default_rng(seed))`` for
  gfs (several model configurations) and webapp KOOZA models, and of
  the in-breadth storage and network generators trained on mapreduce
  traces (map/reduce tasks lack the complete four-subsystem records a
  per-request KOOZA model trains on),
* the drift baseline ``repro serve`` replays from per-class models,

against digests recorded before the samplers were rewritten.

Regenerate (only when output is *supposed* to change, with the reason
recorded in CHANGES.md) with::

    PYTHONPATH=src python tests/test_golden_synthesis.py --regenerate
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import KoozaConfig, KoozaTrainer
from repro.datacenter import FleetSpec, collect_fleet_to_store
from repro.store import ShardStore

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "synthesis_golden.json"

#: Store name -> collect_fleet_to_store arguments.
STORES = {
    "gfs": dict(
        spec=dict(app="gfs", replicas=2, seed=7, n_requests=200),
        codec="columnar",
    ),
    "webapp": dict(spec=dict(app="webapp", replicas=1, seed=7, n_requests=200)),
    "mapreduce": dict(spec=dict(app="mapreduce", replicas=1, seed=7, n_requests=1)),
}

#: Command name -> argv after the store path ({model} is the trained
#: model file).  Run against the gfs and webapp stores.
COMMANDS = {
    "validate": ["validate", "--model", "{model}", "--no-cache"],
    "validate-per-class": ["validate", "--per-class", "--no-cache"],
    "plan": ["plan", "--no-cache"],
    "plan-json": ["plan", "--no-cache", "--json"],
}
COMMAND_STORES = ("gfs", "webapp")

#: Synthesis dump name -> (store, KoozaConfig overrides).
MODELS = {
    "gfs": ("gfs", {}),
    "gfs-uncoupled": ("gfs", {"couple_subsystems": False}),
    "gfs-autocorrelated": ("gfs", {"arrival_model": "autocorrelated"}),
    "gfs-no-dependency-queue": ("gfs", {"use_dependency_queue": False}),
    "webapp": ("webapp", {}),
}
BREADTH_MODELS = ("mapreduce-storage", "mapreduce-network")
SYNTH_REQUESTS = 300
SYNTH_SEED = 7


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def build_stores(root: Path) -> dict[str, Path]:
    """Collect every golden store under ``root``."""
    paths = {}
    for name, args in STORES.items():
        args = dict(args)
        spec = FleetSpec(**args.pop("spec"))
        paths[name] = root / name
        collect_fleet_to_store(spec, directory=paths[name], **args)
    return paths


def run_cli(argv: list[str], root: Path) -> dict:
    """One in-process CLI call: exit code and stdout digest."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout_sha256": _sha256(out.getvalue().replace(str(root), "."))}


def command_digests(store: Path, root: Path) -> dict[str, dict]:
    """Digests of every pinned command against one store."""
    model = root / f"{store.name}-model.json"
    if not model.exists():
        run_cli(["train", "--in", str(store), "--model", str(model)], root)
    digests = {}
    for name, argv in COMMANDS.items():
        argv = [a.format(model=model) for a in argv]
        digests[name] = run_cli([argv[0], "--in", str(store), *argv[1:]], root)
    return digests


def synthesis_dump(model, n: int = SYNTH_REQUESTS, seed: int = SYNTH_SEED) -> str:
    """Canonical JSON of ``model.synthesize(n, default_rng(seed))``."""
    requests = model.synthesize(n, np.random.default_rng(seed))
    rows = [
        {
            "arrival_time": r.arrival_time,
            "label": r.label,
            "stages": [asdict(s) for s in r.stages],
        }
        for r in requests
    ]
    return json.dumps(rows, sort_keys=True, separators=(",", ":"))


def synthesis_digest(name: str, stores: dict[str, Path]) -> str:
    store, overrides = MODELS[name]
    model = KoozaTrainer(KoozaConfig(**overrides)).fit(ShardStore(stores[store]))
    return _sha256(synthesis_dump(model))


def breadth_digest(name: str, stores: dict[str, Path]) -> str:
    """Digest of an in-breadth generator trained on mapreduce traces."""
    from repro.breadth import NetworkTrafficModel, StorageModel

    source = ShardStore(stores["mapreduce"])
    rng = np.random.default_rng(SYNTH_SEED)
    if name == "mapreduce-storage":
        model = StorageModel().fit(list(source.iter_records("storage")))
        rows = [asdict(r) for r in model.generate(SYNTH_REQUESTS, rng)]
    else:
        # NetworkTrafficModel.generate refuses this fit (its winning
        # family has an infinite mean), so its two samplers are pinned
        # directly: one block of interarrivals, then the size chain.
        model = NetworkTrafficModel().fit(list(source.iter_records("network")))
        gaps = model.interarrival_fit.sample(SYNTH_REQUESTS, rng)
        path = model.size_chain.sample_path(SYNTH_REQUESTS, rng)
        rows = [[float(g), int(s)] for g, s in zip(gaps, path)]
    return _sha256(json.dumps(rows, sort_keys=True, separators=(",", ":")))


def drift_baseline_digest(store: Path) -> str:
    """Digest of the drift baseline replayed from per-class models."""
    from repro.serve.drift import DriftBaseline
    from repro.store import train_per_class

    source = ShardStore(store)
    fit = train_per_class(source, KoozaConfig(), cache=False)
    counts = source.request_class_counts()
    baseline = DriftBaseline.from_models(fit.models, counts, mean_rate=25.0)
    payload = {
        "latencies": [float(x) for x in baseline.latencies],
        "mix": baseline.mix,
        "mean_rate": baseline.mean_rate,
    }
    return _sha256(json.dumps(payload, sort_keys=True))


def _generate() -> dict:
    import tempfile

    with tempfile.TemporaryDirectory() as td:
        root = Path(td)
        stores = build_stores(root)
        return {
            "commands": {
                name: command_digests(stores[name], root) for name in COMMAND_STORES
            },
            "synthesize": {name: synthesis_digest(name, stores) for name in MODELS},
            "breadth": {name: breadth_digest(name, stores) for name in BREADTH_MODELS},
            "drift_baseline": drift_baseline_digest(stores["gfs"]),
        }


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN_PATH.exists(), (
        f"golden digests missing: {GOLDEN_PATH}; regenerate with "
        "`python tests/test_golden_synthesis.py --regenerate`"
    )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def stores(tmp_path_factory) -> dict[str, Path]:
    return build_stores(tmp_path_factory.mktemp("synthesis-golden"))


@pytest.mark.parametrize("store", COMMAND_STORES)
def test_command_stdout_matches_golden(store, stores, golden):
    root = stores[store].parent
    actual = command_digests(stores[store], root)
    drifted = sorted(
        name for name, pinned in golden["commands"][store].items()
        if actual[name] != pinned
    )
    assert not drifted, (
        f"{store}: output of {drifted} is no longer byte-identical to the "
        "golden recorded before the sampler rewrite"
    )


@pytest.mark.parametrize("name", sorted(MODELS))
def test_synthesize_matches_golden(name, stores, golden):
    assert synthesis_digest(name, stores) == golden["synthesize"][name], (
        f"{name}: KoozaModel.synthesize drew a different request sequence "
        "from the same seed"
    )


@pytest.mark.parametrize("name", BREADTH_MODELS)
def test_breadth_generators_match_golden(name, stores, golden):
    assert breadth_digest(name, stores) == golden["breadth"][name], (
        f"{name}: the in-breadth generator drew a different sequence "
        "from the same seed"
    )


def test_drift_baseline_matches_golden(stores, golden):
    assert drift_baseline_digest(stores["gfs"]) == golden["drift_baseline"]


if __name__ == "__main__":
    import sys

    if "--regenerate" not in sys.argv:
        sys.exit("usage: python tests/test_golden_synthesis.py --regenerate")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(_generate(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")

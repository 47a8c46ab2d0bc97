"""KOOZA model persistence.

Trained models serialize to JSON so trace collection, training and
synthesis can run as separate jobs (the deployment the paper assumes:
traces are collected on the cluster, models are built and shipped to
wherever server-configuration studies run).
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any

import numpy as np

from ..markov import HierarchicalMarkovChain, MarkovChain, QuantileDiscretizer
from ..queueing import FittedDistribution
from .dependency import DependencyQueue
from .model import CpuBinStats, KoozaConfig, KoozaModel, SubsystemCoupler

__all__ = ["load_model", "model_from_dict", "model_to_dict", "save_model"]

_FORMAT_VERSION = 1


def _encode_state(state: Any) -> Any:
    """States are ints, strings, or tuples thereof; tuples become lists."""
    if isinstance(state, tuple):
        return [_encode_state(s) for s in state]
    if isinstance(state, (np.integer,)):
        return int(state)
    return state


def _decode_state(state: Any) -> Any:
    if isinstance(state, list):
        return tuple(_decode_state(s) for s in state)
    return state


def _chain_to_dict(chain: MarkovChain) -> dict:
    return {
        "states": [_encode_state(s) for s in chain.states],
        "transition_matrix": chain.transition_matrix.tolist(),
        "initial_distribution": chain.initial_distribution.tolist(),
    }


def _chain_from_dict(data: dict) -> MarkovChain:
    return MarkovChain(
        [_decode_state(s) for s in data["states"]],
        np.array(data["transition_matrix"]),
        np.array(data["initial_distribution"]),
    )


def _discretizer_to_dict(d: QuantileDiscretizer) -> dict:
    return {
        "n_bins": d.n_bins,
        "edges": d.edges_.tolist(),
        "representatives": d.representatives_.tolist(),
    }


def _discretizer_from_dict(data: dict) -> QuantileDiscretizer:
    d = QuantileDiscretizer(data["n_bins"])
    d.edges_ = np.array(data["edges"])
    d.representatives_ = np.array(data["representatives"])
    return d


def _fit_to_dict(fit: FittedDistribution) -> dict:
    data = {
        "family": fit.family,
        "params": list(fit.params),
        "ks_statistic": fit.ks_statistic,
        "ks_pvalue": fit.ks_pvalue,
        "log_likelihood": fit.log_likelihood,
    }
    # Optional key: written only when a family was skipped, so models
    # without one serialize exactly as before and older files load.
    if fit.skipped:
        data["skipped_families"] = [list(pair) for pair in fit.skipped]
    return data


def _fit_from_dict(data: dict) -> FittedDistribution:
    return FittedDistribution(
        family=data["family"],
        params=tuple(data["params"]),
        ks_statistic=data["ks_statistic"],
        ks_pvalue=data["ks_pvalue"],
        log_likelihood=data["log_likelihood"],
        skipped=tuple(
            (family, reason)
            for family, reason in data.get("skipped_families", ())
        ),
    )


def _coupler_to_dict(coupler: SubsystemCoupler) -> list:
    return [
        [_encode_state(net), _encode_state(state), count]
        for net, bucket in coupler._counts.items()
        for state, count in bucket.items()
    ]


def _coupler_from_dict(rows: list) -> SubsystemCoupler:
    coupler = SubsystemCoupler()
    for net, state, count in rows:
        bucket = coupler._counts.setdefault(_decode_state(net), {})
        bucket[_decode_state(state)] = float(count)
    return coupler


def model_to_dict(model: KoozaModel) -> dict:
    """Serialize a fitted model to a JSON-safe dictionary."""
    if not model.is_fitted():
        raise ValueError("cannot serialize an unfitted model")
    data: dict[str, Any] = {
        "format_version": _FORMAT_VERSION,
        "config": asdict(model.config),
        "n_training_requests": model.n_training_requests,
        "memory_interleave": model.memory_interleave,
        "network_sizes": _discretizer_to_dict(model.network_sizes),
        "network_chain": _chain_to_dict(model.network_chain),
        "storage_sizes": _discretizer_to_dict(model.storage_sizes),
        "storage_seeks": _discretizer_to_dict(model.storage_seeks),
        "storage_chain": _chain_to_dict(model.storage_chain),
        "memory_sizes": _discretizer_to_dict(model.memory_sizes),
        "memory_chain": _chain_to_dict(model.memory_chain),
        "cpu_utilization": _discretizer_to_dict(model.cpu_utilization),
        "cpu_chain": _chain_to_dict(model.cpu_chain),
        "cpu_bin_stats": {
            str(state): [s.mean_lookup_busy, s.mean_aggregate_busy]
            for state, s in model.cpu_bin_stats.items()
        },
        "arrival_gaps": model.arrival_gaps.tolist(),
        "arrival_fit": (
            _fit_to_dict(model.arrival_fit)
            if model.arrival_fit is not None
            else None
        ),
        "couplers": {
            name: _coupler_to_dict(coupler)
            for name, coupler in model.couplers.items()
        },
        "dependency_queue": {
            "sequences": [
                [_encode_state(profile), list(sequence)]
                for profile, sequence in model.dependency_queue.sequences.items()
            ],
            "supports": [
                [_encode_state(profile), count]
                for profile, count in model.dependency_queue.supports.items()
            ],
            "default": list(model.dependency_queue.default),
        },
    }
    if model.storage_hierarchy is not None:
        data["storage_hierarchy"] = {
            "group_chain": _chain_to_dict(model.storage_hierarchy.group_chain),
            "sub_chains": [
                [_encode_state(group), _chain_to_dict(chain)]
                for group, chain in model.storage_hierarchy.sub_chains.items()
            ],
        }
    return data


def model_from_dict(data: dict) -> KoozaModel:
    """Rebuild a fitted model from :func:`model_to_dict` output."""
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    model = KoozaModel(KoozaConfig(**data["config"]))
    model.n_training_requests = data["n_training_requests"]
    model.memory_interleave = data["memory_interleave"]
    model.network_sizes = _discretizer_from_dict(data["network_sizes"])
    model.network_chain = _chain_from_dict(data["network_chain"])
    model.storage_sizes = _discretizer_from_dict(data["storage_sizes"])
    model.storage_seeks = _discretizer_from_dict(data["storage_seeks"])
    model.storage_chain = _chain_from_dict(data["storage_chain"])
    model.memory_sizes = _discretizer_from_dict(data["memory_sizes"])
    model.memory_chain = _chain_from_dict(data["memory_chain"])
    model.cpu_utilization = _discretizer_from_dict(data["cpu_utilization"])
    model.cpu_chain = _chain_from_dict(data["cpu_chain"])
    model.cpu_bin_stats = {
        int(state): CpuBinStats(lookup, aggregate)
        for state, (lookup, aggregate) in data["cpu_bin_stats"].items()
    }
    model.arrival_gaps = np.array(data["arrival_gaps"])
    if data["arrival_fit"] is not None:
        model.arrival_fit = _fit_from_dict(data["arrival_fit"])
    model.couplers = {
        name: _coupler_from_dict(rows)
        for name, rows in data["couplers"].items()
    }
    queue = data["dependency_queue"]
    model.dependency_queue = DependencyQueue(
        sequences={
            _decode_state(profile): tuple(sequence)
            for profile, sequence in queue["sequences"]
        },
        supports={
            _decode_state(profile): count
            for profile, count in queue["supports"]
        },
        default=tuple(queue["default"]),
    )
    if "storage_hierarchy" in data:
        hierarchy = data["storage_hierarchy"]
        model.storage_hierarchy = HierarchicalMarkovChain(
            _chain_from_dict(hierarchy["group_chain"]),
            {
                _decode_state(group): _chain_from_dict(chain)
                for group, chain in hierarchy["sub_chains"]
            },
        )
    return model


def save_model(model: KoozaModel, path: str | Path) -> Path:
    """Write a fitted model to a JSON file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(model_to_dict(model)))
    return path


def load_model(path: str | Path) -> KoozaModel:
    """Read a model previously written by :func:`save_model`."""
    return model_from_dict(json.loads(Path(path).read_text()))

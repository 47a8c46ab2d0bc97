"""Tests for distribution fitting and the queueing-network simulator."""

import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.queueing import (
    CANDIDATE_FAMILIES,
    FittedDistribution,
    PoissonArrivals,
    QueueingNetwork,
    Station,
    fit_distribution,
)
from repro.simulation import Environment


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# -- fitting -----------------------------------------------------------------


def test_fit_recovers_exponential_family_shape(rng):
    data = rng.exponential(0.02, 3000)
    fit = fit_distribution(data)
    assert fit.family in CANDIDATE_FAMILIES
    assert fit.mean == pytest.approx(0.02, rel=0.1)
    assert fit.ks_statistic < 0.05


def test_fit_lognormal_identified(rng):
    data = rng.lognormal(mean=-3.0, sigma=1.0, size=4000)
    fit = fit_distribution(data, families=("expon", "lognorm"))
    assert fit.family == "lognorm"


def test_fit_sampling_matches_mean(rng):
    data = rng.gamma(3.0, 0.01, 3000)
    fit = fit_distribution(data)
    synthetic = fit.sample(5000, rng)
    assert synthetic.mean() == pytest.approx(data.mean(), rel=0.1)


def test_fit_validation(rng):
    with pytest.raises(ValueError):
        fit_distribution([1.0, 2.0])  # too few
    with pytest.raises(ValueError):
        fit_distribution([3.0] * 100)  # constant
    with pytest.raises(ValueError):
        fit_distribution([-1.0] * 100)  # nothing positive


def test_fit_describe_readable(rng):
    fit = fit_distribution(rng.exponential(1.0, 500))
    assert "KS=" in fit.describe()


# -- draw identity -------------------------------------------------------------
#
# ``FittedDistribution.sample`` draws each family directly instead of
# through scipy; it must return the same array as the scipy reference
# and leave the generator in the same state, with any other draws
# interleaved on the same generator.


def _reference_sample(family, params, n, rng):
    return np.maximum(0, getattr(stats, family)(*params).rvs(size=n, random_state=rng))


def _other_draw(kind, rng):
    if kind == "random":
        return rng.random()
    if kind == "normal":
        return rng.standard_normal(3)
    if kind == "integers":
        return rng.integers(0, 1000)
    return rng.standard_gamma(0.7)


@st.composite
def family_params(draw):
    family = draw(st.sampled_from(CANDIDATE_FAMILIES))
    shapes = () if family == "expon" else (draw(st.floats(0.05, 20.0)),)
    loc = draw(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))
    return family, (*shapes, loc, draw(st.floats(1e-3, 100.0)))


@settings(max_examples=150, deadline=None)
@given(
    spec=family_params(),
    n=st.sampled_from([1, 2, 17]),
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(
        st.sampled_from(["sample", "random", "normal", "integers", "gamma"]),
        min_size=1,
        max_size=6,
    ),
)
def test_sample_draws_identically_to_scipy_rvs(spec, n, seed, steps):
    family, params = spec
    fit = FittedDistribution(family, params, 0.0, 1.0, 0.0)
    ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for step in ["sample", *steps, "sample"]:
        if step == "sample":
            got = fit.sample(n, ours)
            want = _reference_sample(family, params, n, reference)
            assert got.dtype == want.dtype and got.shape == want.shape == (n,)
            assert got.tobytes() == want.tobytes()
        else:
            _other_draw(step, ours)
            _other_draw(step, reference)
    assert ours.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize(
    "family, params",
    [
        # Shapes whose exponent hits numpy's fast paths for power
        # (1/c or -1/b in {0.5, 1, 2, -1, -2}), and a zero scale.
        ("weibull_min", (2.0, 0.0, 0.5)),
        ("weibull_min", (1.0, 0.0, 0.5)),
        ("weibull_min", (0.5, 0.0, 0.5)),
        ("pareto", (1.0, 0.0, 0.5)),
        ("pareto", (0.5, -0.2, 0.5)),
        ("gamma", (1.0, 0.0, 0.0)),
    ],
)
def test_sample_draws_identically_at_special_shapes(family, params):
    fit = FittedDistribution(family, params, 0.0, 1.0, 0.0)
    ours, reference = np.random.default_rng(3), np.random.default_rng(3)
    for n in (1, 2, 17, 1000):
        got = fit.sample(n, ours)
        assert got.tobytes() == _reference_sample(family, params, n, reference).tobytes()
    assert ours.bit_generator.state == reference.bit_generator.state


def test_sample_rejects_invalid_parameters_like_scipy():
    fit = FittedDistribution("gamma", (-1.0, 0.0, 1.0), 0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="Domain error"):
        fit.sample(1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="Domain error"):
        _reference_sample("gamma", (-1.0, 0.0, 1.0), 1, np.random.default_rng(0))


def test_sample_falls_back_to_scipy_for_other_families():
    fit = FittedDistribution("norm", (0.5, 0.1), 0.0, 1.0, 0.0)
    ours, reference = np.random.default_rng(5), np.random.default_rng(5)
    got = fit.sample(17, ours)
    assert got.tobytes() == _reference_sample("norm", (0.5, 0.1), 17, reference).tobytes()


def test_frozen_is_built_once_and_follows_parameter_changes():
    fit = FittedDistribution("expon", (0.0, 2.0), 0.0, 1.0, 0.0)
    assert fit.frozen is fit.frozen
    assert fit.mean == pytest.approx(2.0)
    fit.params = (0.0, 3.0)
    assert fit.mean == pytest.approx(3.0)
    ours, reference = np.random.default_rng(1), np.random.default_rng(1)
    got = fit.sample(5, ours)
    assert got.tobytes() == _reference_sample("expon", (0.0, 3.0), 5, reference).tobytes()


def test_fitted_distribution_copies_without_its_memo(rng):
    fit = fit_distribution(rng.gamma(2.0, 0.01, 500))
    fit.sample(3, rng)
    fit.frozen
    for clone in (pickle.loads(pickle.dumps(fit)), copy.deepcopy(fit)):
        assert clone == fit
        assert clone._frozen_memo is None and clone._draw_memo is None
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        assert clone.sample(4, a).tobytes() == fit.sample(4, b).tobytes()


def test_model_round_trip_synthesizes_identically():
    from repro.core import KoozaTrainer, model_from_dict, model_to_dict
    from repro.datacenter import run_gfs_workload

    model = KoozaTrainer().fit(run_gfs_workload(n_requests=300, seed=7).traces)
    assert model.arrival_fit is not None
    # Populate every memo before the round trip.
    model.synthesize(50, np.random.default_rng(0))
    restored = model_from_dict(model_to_dict(model))
    assert restored.arrival_fit._draw_memo is None
    for seed in (0, 11):
        ours = model.synthesize(200, np.random.default_rng(seed))
        theirs = restored.synthesize(200, np.random.default_rng(seed))
        assert ours == theirs


# -- skipped families -----------------------------------------------------------


def test_fit_records_families_that_fail(rng, monkeypatch):
    def broken_fit(*args, **kwargs):
        raise RuntimeError("did not converge")

    monkeypatch.setattr(stats.gamma, "fit", broken_fit)
    fit = fit_distribution(rng.exponential(0.02, 500))
    assert fit.family != "gamma"
    assert fit.skipped == (("gamma", "RuntimeError: did not converge"),)
    assert "skipped gamma (RuntimeError: did not converge)" in fit.describe()


def test_fit_without_skipped_families_describes_as_before(rng):
    fit = fit_distribution(rng.exponential(0.02, 500))
    assert fit.skipped == ()
    assert "skipped" not in fit.describe()


def test_fit_reports_skipped_families_when_none_fit(rng, monkeypatch):
    monkeypatch.setattr(stats.expon, "fit", lambda *a, **k: 1 / 0)
    with pytest.raises(ValueError, match="ZeroDivisionError"):
        fit_distribution(rng.exponential(0.02, 500), families=("expon",))


def test_skipped_families_survive_model_json_and_stay_optional():
    from repro.core import KoozaTrainer, model_from_dict, model_to_dict
    from repro.datacenter import run_gfs_workload

    model = KoozaTrainer().fit(run_gfs_workload(n_requests=300, seed=7).traces)
    plain = model_to_dict(model)
    assert "skipped_families" not in plain["arrival_fit"]
    assert model_from_dict(plain).arrival_fit.skipped == ()
    assert "skipped" not in model.describe()

    model.arrival_fit = replace(
        model.arrival_fit, skipped=(("pareto", "RuntimeError: boom"),)
    )
    data = model_to_dict(model)
    assert data["arrival_fit"]["skipped_families"] == [["pareto", "RuntimeError: boom"]]
    restored = model_from_dict(data)
    assert restored.arrival_fit.skipped == (("pareto", "RuntimeError: boom"),)
    assert "skipped pareto (RuntimeError: boom)" in restored.describe()


# -- queueing network ---------------------------------------------------------


def _constant(value):
    return lambda _cls, _rng: value


def test_network_routes_by_class(rng):
    env = Environment()
    network = QueueingNetwork(
        env,
        [
            Station("web", 1, _constant(0.001)),
            Station("db", 1, _constant(0.004)),
        ],
        {"static": ["web"], "dynamic": ["web", "db"]},
        rng,
    )

    def driver(env):
        r1 = yield env.process(network.submit("static"))
        r2 = yield env.process(network.submit("dynamic"))
        return r1, r2

    r1, r2 = env.run(env.process(driver(env)))
    assert [v.station for v in r1.visits] == ["web"]
    assert [v.station for v in r2.visits] == ["web", "db"]
    assert r2.latency == pytest.approx(0.005)


def test_network_queueing_wait_measured(rng):
    env = Environment()
    network = QueueingNetwork(
        env, [Station("s", 1, _constant(0.01))], {"j": ["s"]}, rng
    )
    env.process(network.submit("j"))
    env.process(network.submit("j"))
    env.run()
    waits = sorted(v.wait for r in network.results for v in r.visits)
    assert waits[0] == pytest.approx(0.0)
    assert waits[1] == pytest.approx(0.01)


def test_network_station_utilization(rng):
    env = Environment()
    network = QueueingNetwork(
        env, [Station("s", 1, _constant(0.5))], {"j": ["s"]}, rng
    )
    env.process(network.submit("j"))
    env.run(until=1.0)
    assert network.station_utilization("s") == pytest.approx(0.5)


def test_network_run_open_completes_all(rng):
    env = Environment()
    network = QueueingNetwork(
        env, [Station("s", 2, _constant(0.001))], {"j": ["s"]}, rng
    )
    results = network.run_open(
        PoissonArrivals(100.0, np.random.default_rng(1)),
        lambda _rng: "j",
        500,
    )
    assert len(results) == 500


def test_network_validation(rng):
    env = Environment()
    with pytest.raises(ValueError):
        QueueingNetwork(
            env, [Station("s", 1, _constant(1.0))], {"j": ["missing"]}, rng
        )
    with pytest.raises(ValueError):
        QueueingNetwork(
            env,
            [Station("s", 1, _constant(1.0)), Station("s", 1, _constant(1.0))],
            {"j": ["s"]},
            rng,
        )
    with pytest.raises(ValueError):
        Station("bad", 0, _constant(1.0))


def test_network_unknown_class_raises(rng):
    env = Environment()
    network = QueueingNetwork(
        env, [Station("s", 1, _constant(1.0))], {"j": ["s"]}, rng
    )
    with pytest.raises(KeyError):
        next(network.submit("nope"))

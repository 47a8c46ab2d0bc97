"""Tests for Markov chains, discretization, hierarchy and the HMM."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.markov import (
    GaussianHMM,
    HierarchicalMarkovChain,
    MarkovChain,
    QuantileDiscretizer,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# -- MarkovChain ---------------------------------------------------------


def test_from_sequence_recovers_transition_probs(rng):
    truth = MarkovChain(
        ["a", "b"], np.array([[0.9, 0.1], [0.4, 0.6]]), np.array([1.0, 0.0])
    )
    path = truth.sample_path(20_000, rng)
    estimated = MarkovChain.from_sequence(path)
    i, j = estimated.index_of("a"), estimated.index_of("b")
    assert estimated.transition_matrix[i, j] == pytest.approx(0.1, abs=0.02)
    assert estimated.transition_matrix[j, i] == pytest.approx(0.4, abs=0.02)


def test_rows_sum_to_one_validation():
    with pytest.raises(ValueError):
        MarkovChain(["a", "b"], np.array([[0.5, 0.2], [0.5, 0.5]]))


def test_negative_probability_rejected():
    with pytest.raises(ValueError):
        MarkovChain(["a", "b"], np.array([[1.5, -0.5], [0.5, 0.5]]))


def test_stationary_distribution_two_state():
    chain = MarkovChain(
        ["a", "b"], np.array([[0.9, 0.1], [0.3, 0.7]])
    )
    pi = chain.stationary_distribution()
    # Detailed balance: pi = [0.75, 0.25].
    assert pi[chain.index_of("a")] == pytest.approx(0.75, abs=1e-9)


def test_stationary_is_fixed_point(rng):
    seq = list(rng.choice(4, size=5000))
    chain = MarkovChain.from_sequence(seq)
    pi = chain.stationary_distribution()
    assert np.allclose(pi @ chain.transition_matrix, pi, atol=1e-9)


def test_sample_path_stays_in_state_space(rng):
    chain = MarkovChain.from_sequence(["x", "y", "z", "x", "y", "z"])
    path = chain.sample_path(100, rng)
    assert set(path) <= {"x", "y", "z"}


def test_sample_path_start_state(rng):
    chain = MarkovChain.from_sequence(["x", "y", "x", "y"])
    path = chain.sample_path(5, rng, start="y")
    assert path[0] == "y"


def test_absorbing_by_truncation_gets_self_loop():
    chain = MarkovChain.from_sequence(["a", "a", "b"])  # b never left
    i = chain.index_of("b")
    assert chain.transition_matrix[i, i] == 1.0


def test_smoothing_gives_unseen_transitions_mass():
    chain = MarkovChain.from_sequence(["a", "a", "b", "a"], smoothing=1.0)
    i, j = chain.index_of("b"), chain.index_of("b")
    assert chain.transition_matrix[i, j] > 0


def test_log_likelihood_prefers_generating_chain(rng):
    chain = MarkovChain(
        ["a", "b"], np.array([[0.95, 0.05], [0.5, 0.5]]), np.array([1.0, 0.0])
    )
    other = MarkovChain(
        ["a", "b"], np.array([[0.05, 0.95], [0.5, 0.5]]), np.array([1.0, 0.0])
    )
    path = chain.sample_path(500, rng)
    assert chain.log_likelihood(path) > other.log_likelihood(path)


def test_short_sequence_rejected():
    with pytest.raises(ValueError):
        MarkovChain.from_sequence(["only"])


def test_describe_mentions_states():
    chain = MarkovChain.from_sequence(["u", "v", "u", "v"])
    text = chain.describe()
    assert "u" in text and "v" in text


# -- QuantileDiscretizer ----------------------------------------------------


def test_discretizer_low_cardinality_exact_bins():
    d = QuantileDiscretizer(8).fit([64.0] * 10 + [4096.0] * 5)
    assert d.effective_bins == 2
    assert d.representative(d.transform_one(64.0)) == pytest.approx(64.0)
    assert d.representative(d.transform_one(4096.0)) == pytest.approx(4096.0)


def test_discretizer_continuous_quantile_bins(rng):
    data = rng.exponential(1.0, 5000)
    d = QuantileDiscretizer(8).fit(data)
    assert d.effective_bins == 8
    counts = np.bincount(d.transform(data), minlength=8)
    # Quantile bins: roughly equal occupancy.
    assert counts.min() > 0.5 * counts.max()


def test_discretizer_representative_within_bin(rng):
    data = rng.normal(0, 1, 1000)
    d = QuantileDiscretizer(4).fit(data)
    for b in range(d.effective_bins):
        rep = d.representative(b)
        assert d.edges_[b] <= rep <= d.edges_[b + 1]


def test_discretizer_constant_data():
    d = QuantileDiscretizer(4).fit([5.0, 5.0, 5.0])
    assert d.effective_bins == 1
    assert d.representative(0) == pytest.approx(5.0)


def test_discretizer_validation():
    with pytest.raises(ValueError):
        QuantileDiscretizer(0)
    with pytest.raises(ValueError):
        QuantileDiscretizer(4).fit([])
    d = QuantileDiscretizer(4).fit([1.0, 2.0])
    with pytest.raises(IndexError):
        d.representative(99)
    with pytest.raises(RuntimeError):
        QuantileDiscretizer(4).transform([1.0])


@settings(max_examples=30)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=100,
    )
)
def test_discretizer_transform_in_range_property(values):
    d = QuantileDiscretizer(6).fit(values)
    indices = d.transform(values)
    assert np.all(indices >= 0)
    assert np.all(indices < d.effective_bins)


# -- draw identity -------------------------------------------------------
#
# ``MarkovChain.sample_path`` and ``SubsystemCoupler.sample`` search
# precomputed cdfs instead of calling ``rng.choice(n, p=...)``.  They
# must return what the choice-based reference returns and leave the
# generator in the same state, with other draws interleaved.


def _reference_path(chain, n_steps, rng, start=None):
    if start is None:
        current = int(rng.choice(chain.n_states, p=chain.initial_distribution))
    else:
        current = chain.index_of(start)
    path = [chain.states[current]]
    for _ in range(n_steps - 1):
        current = int(rng.choice(chain.n_states, p=chain.transition_matrix[current]))
        path.append(chain.states[current])
    return path


def _simplex(draw, n):
    """A probability vector of length n, zero entries allowed."""
    weights = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 10.0)), min_size=n, max_size=n
        )
    )
    if sum(weights) == 0:
        weights[draw(st.integers(0, n - 1))] = 1.0
    weights = np.array(weights)
    return weights / weights.sum()


@st.composite
def chains(draw):
    n = draw(st.integers(1, 6))
    rows = []
    for i in range(n):
        if draw(st.booleans()) and draw(st.booleans()):
            row = np.zeros(n)
            row[i] = 1.0  # absorbing
        else:
            row = _simplex(draw, n)
        rows.append(row)
    states = [(f"s{i}", i % 2) for i in range(n)]
    return MarkovChain(states, np.array(rows), _simplex(draw, n))


@settings(max_examples=100, deadline=None)
@given(
    chain=chains(),
    seed=st.integers(0, 2**32 - 1),
    calls=st.lists(
        st.tuples(st.integers(1, 12), st.one_of(st.none(), st.integers(0, 5)), st.booleans()),
        min_size=1,
        max_size=6,
    ),
)
def test_sample_path_draws_identically_to_choice(chain, seed, calls):
    ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for n_steps, start, interleave in calls:
        if start is not None:
            start = chain.states[start % chain.n_states]
        got = chain.sample_path(n_steps, ours, start=start)
        assert got == _reference_path(chain, n_steps, reference, start=start)
        if interleave:
            assert ours.standard_normal(2).tolist() == reference.standard_normal(2).tolist()
    assert ours.bit_generator.state == reference.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(
    buckets=st.dictionaries(
        st.integers(0, 5),
        st.dictionaries(
            st.tuples(st.sampled_from(["read", "write"]), st.integers(0, 4)),
            st.floats(1.0, 50.0),
            min_size=1,
            max_size=6,
        ),
        min_size=1,
        max_size=4,
    ),
    seed=st.integers(0, 2**32 - 1),
    picks=st.lists(st.tuples(st.integers(0, 5), st.booleans()), min_size=1, max_size=20),
)
def test_coupler_sample_draws_identically_to_choice(buckets, seed, picks):
    from repro.core import SubsystemCoupler

    coupler = SubsystemCoupler()
    for net_state, bucket in buckets.items():
        for state, count in bucket.items():
            for _ in range(int(count)):
                coupler.observe(net_state, state)
    ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for net_state, interleave in picks:
        if not coupler.known(net_state):
            continue
        bucket = coupler._counts[net_state]
        states = list(bucket)
        probs = np.array([bucket[s] for s in states])
        want = states[int(reference.choice(len(states), p=probs / probs.sum()))]
        assert coupler.sample(net_state, ours) == want
        if interleave:
            assert ours.random() == reference.random()
    assert ours.bit_generator.state == reference.bit_generator.state


def test_coupler_rebuilds_its_cdf_after_new_observations():
    from repro.core import SubsystemCoupler

    coupler = SubsystemCoupler()
    coupler.observe(0, "a")
    rng = np.random.default_rng(0)
    assert {coupler.sample(0, rng) for _ in range(20)} == {"a"}
    for _ in range(1000):
        coupler.observe(0, "b")
    assert "b" in {coupler.sample(0, rng) for _ in range(20)}


# -- HierarchicalMarkovChain -------------------------------------------------


def test_hierarchical_matches_groups(rng):
    seq = list(rng.choice(["r4", "r8", "w4", "w8"], size=2000))
    h = HierarchicalMarkovChain.from_sequence(seq, group_of=lambda s: s[0])
    assert set(h.group_chain.states) == {"r", "w"}
    assert set(h.sub_chains["r"].states) == {"r4", "r8"}


def test_hierarchical_sample_respects_groups(rng):
    seq = ["a1", "a2", "b1", "a1", "a2", "b1"] * 50
    h = HierarchicalMarkovChain.from_sequence(seq, group_of=lambda s: s[0])
    path = h.sample_path(200, rng)
    for state in path:
        assert state in {"a1", "a2", "b1"}


def test_hierarchical_fewer_parameters_than_flat(rng):
    states = [f"{g}{i}" for g in "abcd" for i in range(4)]
    seq = list(rng.choice(states, size=4000))
    flat = MarkovChain.from_sequence(seq)
    hier = HierarchicalMarkovChain.from_sequence(seq, group_of=lambda s: s[0])
    flat_params = flat.n_states * (flat.n_states - 1)
    assert hier.n_parameters < flat_params


def test_hierarchical_single_observation_group():
    h = HierarchicalMarkovChain.from_sequence(
        ["a", "b", "a", "a"], group_of=lambda s: s
    )
    assert h.sub_chains["b"].n_states == 1


def test_hierarchical_validation():
    with pytest.raises(ValueError):
        HierarchicalMarkovChain.from_sequence(["x"], group_of=lambda s: s)


# -- GaussianHMM -----------------------------------------------------------


def test_hmm_separates_two_regimes(rng):
    obs = np.concatenate([rng.normal(0, 1, 300), rng.normal(15, 1, 300)])
    hmm = GaussianHMM(2, rng, max_iter=25).fit(obs)
    means = np.sort(hmm.means_)
    assert means[0] == pytest.approx(0.0, abs=0.8)
    assert means[1] == pytest.approx(15.0, abs=0.8)


def test_hmm_viterbi_recovers_switch_point(rng):
    obs = np.concatenate([rng.normal(0, 0.5, 200), rng.normal(10, 0.5, 200)])
    hmm = GaussianHMM(2, rng, max_iter=25).fit(obs)
    path = hmm.viterbi(obs)
    assert path[0] != path[-1]
    assert len(np.unique(path[:190])) == 1
    assert len(np.unique(path[210:])) == 1


def test_hmm_sample_reproduces_spread(rng):
    obs = np.concatenate([rng.normal(0, 1, 400), rng.normal(20, 1, 400)])
    hmm = GaussianHMM(2, rng, max_iter=25).fit(obs)
    synthetic = hmm.sample(2000)
    assert synthetic.min() < 5
    assert synthetic.max() > 15


def test_hmm_score_favors_training_regime(rng):
    obs = rng.normal(0, 1, 400)
    hmm = GaussianHMM(2, rng, max_iter=15).fit(obs)
    good = hmm.score(rng.normal(0, 1, 100))
    bad = hmm.score(rng.normal(50, 1, 100))
    assert good > bad


def test_hmm_em_increases_likelihood(rng):
    obs = np.concatenate([rng.normal(0, 1, 200), rng.normal(8, 1, 200)])
    short = GaussianHMM(2, np.random.default_rng(1), max_iter=1).fit(obs)
    long = GaussianHMM(2, np.random.default_rng(1), max_iter=25).fit(obs)
    assert long.log_likelihood_ >= short.log_likelihood_ - 1e-6


def test_hmm_validation(rng):
    with pytest.raises(ValueError):
        GaussianHMM(0, rng)
    with pytest.raises(ValueError):
        GaussianHMM(4, rng).fit([1.0, 2.0])
    with pytest.raises(RuntimeError):
        GaussianHMM(2, rng).sample(10)

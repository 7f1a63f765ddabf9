"""The array-window history learner against the per-key deque oracle.

``HistoryLearner.reference`` averages each region's row of the window with
one row-wise ``mean``; the oracle (``tests/oracles/history.py``) averages a
list per key.  Both must produce the same bytes, including for windows of 8
or more rounds, where numpy's pairwise summation starts grouping terms.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HistoryLearner
from tests.oracles.history import DequeHistoryLearner

_intensity = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)


@st.composite
def histories(draw, partial_rounds):
    """(window, region keys, rounds); each round is (keys, carbon, water)."""
    window = draw(st.integers(1, 12))
    n_regions = draw(st.integers(1, 6))
    keys = [f"r{i}" for i in range(n_regions)]
    rounds = []
    for _ in range(draw(st.integers(0, 30))):
        if partial_rounds:
            present = draw(st.lists(st.sampled_from(keys), unique=True, max_size=n_regions))
        else:
            present = keys
        carbon = draw(st.lists(_intensity, min_size=len(present), max_size=len(present)))
        water = draw(st.lists(_intensity, min_size=len(present), max_size=len(present)))
        rounds.append((present, carbon, water))
    return window, keys, rounds


def _assert_same_reference(window, keys, rounds):
    learner, oracle = HistoryLearner(window), DequeHistoryLearner(window)
    queries = (keys, keys[::-1], keys + ["never-seen"])
    for present, carbon, water in rounds:
        learner.observe(present, carbon, water)
        oracle.observe(present, carbon, water)
        assert learner.rounds_recorded == oracle.rounds_recorded
        for query in queries:
            mine, theirs = learner.reference(query), oracle.reference(query)
            assert mine[0].tobytes() == theirs[0].tobytes()
            assert mine[1].tobytes() == theirs[1].tobytes()


@settings(max_examples=100, deadline=None)
@given(histories(partial_rounds=False))
def test_reference_matches_the_oracle_byte_for_byte(history):
    _assert_same_reference(*history)


@settings(max_examples=60, deadline=None)
@given(histories(partial_rounds=True))
def test_rounds_missing_regions_match_the_oracle(history):
    _assert_same_reference(*history)


@pytest.mark.parametrize("window", [8, 9, 12])
def test_long_windows_use_pairwise_grouping(window):
    # Values spanning many magnitudes make a sequential and a pairwise sum
    # differ in the last bits, so this pins the summation order.
    rng = np.random.default_rng(window)
    keys = ["a", "b", "c"]
    rounds = [
        (keys, list(rng.uniform(0, 1, 3) * 10.0 ** rng.integers(-6, 6, 3)), list(rng.uniform(0, 5, 3)))
        for _ in range(3 * window)
    ]
    _assert_same_reference(window, keys, rounds)


def test_observe_normalized_is_what_observe_records():
    learner, direct = HistoryLearner(4), HistoryLearner(4)
    carbon, water = np.array([300.0, 150.0, 0.0]), np.array([2.0, 8.0, 4.0])
    learner.observe(["a", "b", "c"], carbon, water)
    direct.observe_normalized(["a", "b", "c"], carbon / carbon.max(), water / water.max())
    for mine, theirs in zip(learner.reference(["a", "b", "c"]), direct.reference(["a", "b", "c"])):
        assert mine.tobytes() == theirs.tobytes()


def test_reset_forgets_regions_and_rounds():
    learner = HistoryLearner(3)
    learner.observe(["a", "b"], [1.0, 2.0], [3.0, 4.0])
    learner.reset()
    assert learner.rounds_recorded == 0
    learner.observe(["b"], [5.0], [6.0])
    co2, h2o = learner.reference(["a", "b"])
    np.testing.assert_array_equal(co2, [0.0, 1.0])
    np.testing.assert_array_equal(h2o, [0.0, 1.0])

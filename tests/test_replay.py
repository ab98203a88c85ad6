"""Bulk draws checked against the scalar generator calls they replay."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcqkd import replay
from tcqkd.replay import replay_draws

# PCG64's default 128-bit LCG multiplier.
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def scalar_calls(rng, bounds):
    return [rng.random() if b == 0 else int(rng.integers(b)) for b in bounds]


def twin_generators(seed, buffered):
    """Two generators in the same state; `buffered` leaves the high half
    of a 64-bit output waiting in PCG64's 32-bit buffer."""
    twins = [np.random.default_rng(seed) for _ in range(2)]
    if buffered:
        for rng in twins:
            rng.integers(2)
    assert all(rng.bit_generator.state["has_uint32"] == int(buffered) for rng in twins)
    return twins


def assert_same_afterwards(bulk, loop):
    assert bulk.bit_generator.state == loop.bit_generator.state
    assert bulk.integers(2) == loop.integers(2)
    assert bulk.random() == loop.random()
    assert bulk.choice(50, size=7, replace=False).tolist() == loop.choice(50, size=7, replace=False).tolist()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("count", [0, 1, 7, 8])
@pytest.mark.parametrize("integer_first", [True, False])
@pytest.mark.parametrize("buffered", [False, True])
def test_interleaved_draws_equal_scalar_calls(k, count, integer_first, buffered):
    bulk, loop = twin_generators(100 + count + k, buffered)
    bounds = ([k, 0] if integer_first else [0, k]) * count
    assert replay_draws(bulk, bounds).tolist() == scalar_calls(loop, bounds)
    assert_same_afterwards(bulk, loop)


@pytest.mark.parametrize("draw", [[0], []], ids=["after_a_draw", "coins_alone"])
@pytest.mark.parametrize("buffered", [False, True])
def test_coins_only_where_masked(buffered, draw):
    """Per position a draw (or none), then a coin only where the mask is
    set."""
    bulk, loop = twin_generators(7, buffered)
    mask = np.random.default_rng(0).random(301) < 0.4
    bounds = [b for coin in mask for b in draw + ([2] if coin else [1])]
    assert replay_draws(bulk, bounds).tolist() == scalar_calls(loop, bounds)
    assert_same_afterwards(bulk, loop)


@settings(max_examples=200, deadline=None)
@given(bounds=st.lists(st.sampled_from([0, 1, 2, 3, 4, 5, 7]), max_size=40),
       seed=st.integers(0, 2**32 - 1), buffered=st.booleans())
def test_any_call_sequence_equals_scalar_calls(bounds, seed, buffered):
    bulk, loop = twin_generators(seed, buffered)
    assert replay_draws(bulk, bounds).tolist() == scalar_calls(loop, bounds)
    assert_same_afterwards(bulk, loop)


def generator_with_zero_output():
    """A generator whose next 64-bit output is 0: PCG64 outputs the high
    and low halves of its new 128-bit state xored (then rotated), so a
    new state of 0 gives 0.  Solve state * multiplier + inc = 0."""
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    inc = state["state"]["inc"]
    state["state"]["state"] = (-inc * pow(PCG64_MULTIPLIER, -1, 2**128)) % 2**128
    rng.bit_generator.state = state
    return rng


def test_rejected_word_takes_the_scalar_route(monkeypatch):
    probe, bulk, loop = (generator_with_zero_output() for _ in range(3))
    assert probe.bit_generator.random_raw() == 0  # so the word for integers(3) is 0
    scalar_route = []
    real = replay._scalar_draws

    def recording(rng, bounds):
        scalar_route.append(len(bounds))
        return real(rng, bounds)

    monkeypatch.setattr(replay, "_scalar_draws", recording)
    bounds = [3, 0] * 5
    assert replay_draws(bulk, bounds).tolist() == scalar_calls(loop, bounds)
    assert scalar_route == [len(bounds)]
    assert_same_afterwards(bulk, loop)


def test_power_of_two_ranges_never_reject(monkeypatch):
    bulk, loop = generator_with_zero_output(), generator_with_zero_output()
    monkeypatch.setattr(replay, "_scalar_draws", None)  # must not be reached
    bounds = [2, 0, 4, 0] * 3
    assert replay_draws(bulk, bounds).tolist() == scalar_calls(loop, bounds)
    assert_same_afterwards(bulk, loop)

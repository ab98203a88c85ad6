"""Bulk draws checked against the scalar generator calls they replay."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcqkd import replay
from tcqkd.replay import replay_draws

# PCG64's default 128-bit LCG multiplier.
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

# 200 examples per property, or the loaded profile's count when it is
# larger (CI runs this file with --hypothesis-profile=deep-ci).
PROPERTY = settings(max_examples=max(200, settings.default.max_examples), deadline=None)

BOUNDS = st.sampled_from([0, 1, 2, 3, 4, 5, 7])


def scalar_calls(rng, slots, m):
    """Per slot, its m values, from the scalar calls made position by
    position."""
    columns = [np.broadcast_to(slot, m).tolist() for slot in slots]
    values = [[rng.random() if b == 0 else int(rng.integers(b)) for b in position]
              for position in zip(*columns)]
    return [list(column) for column in zip(*values)] if m else [[] for _ in slots]


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


def assert_replays(slots, m, seed, buffered):
    bulk, loop = twin_generators(seed, buffered)
    values = replay_draws(bulk, slots, m)
    assert values.shape == (len(slots), m)
    assert values.tolist() == scalar_calls(loop, slots, m)
    assert_same_afterwards(bulk, loop)


def as_arrays(slots, m):
    """The same slots, each given per position: the flat layout."""
    return [np.full(m, slot) for slot in slots]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("count", [0, 1, 7, 8])
@pytest.mark.parametrize("integer_first", [True, False])
@pytest.mark.parametrize("buffered", [False, True])
def test_interleaved_draws_equal_scalar_calls(k, count, integer_first, buffered):
    assert_replays([k, 0] if integer_first else [0, k], count, 100 + count + k, buffered)


@pytest.mark.parametrize("draw", [[0], []], ids=["after_a_draw", "coins_alone"])
@pytest.mark.parametrize("buffered", [False, True])
def test_coins_only_where_masked(buffered, draw):
    """Per position a draw (or none), then a coin only where the mask is
    set."""
    mask = np.random.default_rng(0).random(301) < 0.4
    assert_replays(draw + [np.where(mask, 2, 1)], len(mask), 7, buffered)


@PROPERTY
@given(bounds=st.lists(BOUNDS, max_size=40), seed=st.integers(0, 2**32 - 1),
       buffered=st.booleans(), flat=st.booleans())
def test_any_call_sequence_equals_scalar_calls(bounds, seed, buffered, flat):
    """Any sequence of calls, as the slots of one position."""
    assert_replays(as_arrays(bounds, 1) if flat else bounds, 1, seed, buffered)


@PROPERTY
@given(slots=st.lists(BOUNDS, min_size=1, max_size=4), m=st.integers(0, 9),
       seed=st.integers(0, 2**32 - 1), buffered=st.booleans())
def test_period_layout_equals_scalar_calls(slots, m, seed, buffered):
    assert_replays(slots, m, seed, buffered)


@PROPERTY
@given(data=st.data(), slots=st.lists(BOUNDS, min_size=0, max_size=3), m=st.integers(0, 9),
       seed=st.integers(0, 2**32 - 1), buffered=st.booleans())
def test_runs_with_a_coin_equal_scalar_calls(data, slots, m, seed, buffered):
    """A coin, integers(2) where the mask is set and nothing elsewhere,
    at any slot of a run: the flat layout."""
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
    at = data.draw(st.integers(0, len(slots)))
    assert_replays(slots[:at] + [np.where(mask, 2, 1)] + slots[at:], m, seed, buffered)


@pytest.mark.parametrize("flat", [False, True], ids=["period", "flat"])
@pytest.mark.parametrize("slots", [[0], [2, 0], [3, 0, 4], [1], [np.array([], dtype=int)]],
                         ids=["double", "word_and_double", "two_words", "nothing", "coin"])
def test_no_positions_draw_nothing(slots, flat):
    bulk, loop = twin_generators(3, True)
    values = replay_draws(bulk, as_arrays(slots, 0) if flat else slots, 0)
    assert values.shape == (len(slots), 0)
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


@pytest.mark.parametrize("flat", [False, True], ids=["period", "flat"])
def test_rejected_word_takes_the_scalar_route(flat, monkeypatch):
    probe, bulk, loop = (generator_with_zero_output() for _ in range(3))
    assert probe.bit_generator.random_raw() == 0  # so the word for integers(3) is 0
    scalar_route = []
    real = replay._scalar_draws

    def recording(rng, slots, m):
        scalar_route.append((len(slots), m))
        return real(rng, slots, m)

    monkeypatch.setattr(replay, "_scalar_draws", recording)
    slots, m = [3, 0], 5
    values = replay_draws(bulk, as_arrays(slots, m) if flat else slots, m)
    assert values.tolist() == scalar_calls(loop, slots, m)
    assert scalar_route == [(len(slots), m)]
    assert_same_afterwards(bulk, loop)


@pytest.mark.parametrize("flat", [False, True], ids=["period", "flat"])
def test_power_of_two_ranges_never_reject(flat, monkeypatch):
    bulk, loop = generator_with_zero_output(), generator_with_zero_output()
    monkeypatch.setattr(replay, "_scalar_draws", None)  # must not be reached
    slots, m = [2, 0, 4, 0], 3
    values = replay_draws(bulk, as_arrays(slots, m) if flat else slots, m)
    assert values.tolist() == scalar_calls(loop, slots, m)
    assert_same_afterwards(bulk, loop)

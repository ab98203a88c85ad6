"""numpy's bulk generator calls against the scalar calls they stand for.

`run_session` draws each stream slot-major in bulk calls: per level
`integers(k, size=m)` (no call for one choice) then `random(m)`, the
adversary's coins as `integers(2, size=c)`, and each channel leg as
`random(n)`.  `oracle.scalar_session` makes one scalar call per draw in
the same order.  The two can agree only if a bulk call returns what as
many scalar calls would and leaves the generator where they leave it.
These tests hold the installed numpy to that: with PCG64's buffered
32-bit half-word carried in or not, for calls of size 0, and for words
that the bounded draw rejects.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# PCG64's default 128-bit LCG multiplier.
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

# 200 examples per property, or the loaded profile's count when it is
# larger.
PROPERTY = settings(max_examples=max(200, settings.default.max_examples), deadline=None)

# A call's bound: 0 is random(), 1 a level with one choice (no call),
# larger ones integers(bound).
BOUNDS = st.sampled_from([0, 1, 2, 3, 4, 5, 7])


def bulk_call(rng, bound, size):
    if bound == 1:
        return []
    return (rng.random(size) if bound == 0 else rng.integers(bound, size=size)).tolist()


def scalar_calls(rng, bound, size):
    if bound == 1:
        return []
    return [rng.random() if bound == 0 else int(rng.integers(bound)) for _ in range(size)]


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


def assert_bulk_equals_scalar(calls, bulk, loop):
    """Each (bound, size) call made once in bulk on one generator and as
    size scalar calls on the other."""
    assert [bulk_call(bulk, *call) for call in calls] == [scalar_calls(loop, *call) for call in calls]
    assert_same_afterwards(bulk, loop)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("count", [0, 1, 7, 8])
@pytest.mark.parametrize("integer_first", [True, False])
@pytest.mark.parametrize("buffered", [False, True])
def test_level_draws_equal_scalar_calls(k, count, integer_first, buffered):
    """A level's choices and outcomes, or an outcome column followed by
    the next level's choices."""
    calls = [(k, count), (0, count)]
    assert_bulk_equals_scalar(calls if integer_first else calls[::-1],
                              *twin_generators(100 + count + k, buffered))


@pytest.mark.parametrize("k", [2, 3, 5, 7, 2**31 + 1])
def test_bulk_draws_equal_scalar_calls(k):
    """The premise itself, with a buffered half-word carried in (odd
    leading word count) or not, and out: a scalar draw after the bulk
    calls reads the same."""
    for seed, m, lead in itertools.product(range(10), (1, 2, 7, 1000), (0, 1)):
        bulk, scalar = (np.random.default_rng(seed) for _ in range(2))
        for rng in (bulk, scalar):
            rng.integers(2, size=lead)
        assert bulk.integers(k, size=m).tolist() == [scalar.integers(k) for _ in range(m)]
        assert bulk.random(m).tolist() == [scalar.random() for _ in range(m)]
        assert bulk.integers(k) == scalar.integers(k)


@pytest.mark.parametrize("level", [[(3, 301), (0, 301)], []], ids=["after_a_level", "coins_alone"])
@pytest.mark.parametrize("buffered", [False, True])
def test_coins_equal_scalar_calls(buffered, level):
    """The coins, one per position where the mask leaves a guess, after
    the levels or on a stream that draws nothing else."""
    mask = np.random.default_rng(0).random(301) < 0.4
    assert_bulk_equals_scalar(level + [(2, int(np.count_nonzero(mask)))], *twin_generators(7, buffered))


@PROPERTY
@given(calls=st.lists(st.tuples(BOUNDS, st.integers(0, 9)), max_size=40),
       seed=st.integers(0, 2**32 - 1), buffered=st.booleans())
def test_any_call_sequence_equals_scalar_calls(calls, seed, buffered):
    assert_bulk_equals_scalar(calls, *twin_generators(seed, buffered))


@PROPERTY
@given(data=st.data(), levels=st.lists(BOUNDS.filter(bool), max_size=4), m=st.integers(0, 9),
       seed=st.integers(0, 2**32 - 1), buffered=st.booleans())
def test_session_stream_equals_scalar_calls(data, levels, m, seed, buffered):
    """A stream as a session draws it: per level, m choices then m
    outcomes, then coins at up to m positions."""
    coins = data.draw(st.integers(0, m))
    calls = [call for k in levels for call in ((k, m), (0, m))] + [(2, coins)]
    assert_bulk_equals_scalar(calls, *twin_generators(seed, buffered))


@pytest.mark.parametrize("bound", [0, 2, 3, 4, 2**31 + 1],
                         ids=["random", "coin", "three", "four", "wide"])
@pytest.mark.parametrize("buffered", [False, True])
def test_size_zero_calls_draw_nothing(bound, buffered):
    """A session whose positions are all lost makes its calls with size 0."""
    bulk, untouched = twin_generators(3, buffered)
    assert bulk_call(bulk, bound, 0) == []
    assert_same_afterwards(bulk, untouched)


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


def half_words_used(rng, calls):
    """How many 32-bit halves a fresh zero-output generator spends on
    calls, read by counting integers(2) draws (never rejected) to the
    same state."""
    for call in calls:
        bulk_call(rng, *call)
    probe = generator_with_zero_output()
    for used in range(1, 100):
        probe.integers(2)
        if probe.bit_generator.state == rng.bit_generator.state:
            return used
    raise AssertionError("more than 99 half-words")


@pytest.mark.parametrize("k", [3, 5])
def test_rejected_word_is_redrawn_alike(k):
    """Both zero halves are rejected for integers(k): the bulk call
    redraws them as the scalar calls do."""
    probe = generator_with_zero_output()
    assert probe.bit_generator.random_raw() == 0
    calls = [(k, 5), (0, 5)]
    assert half_words_used(generator_with_zero_output(), calls[:1]) == 7
    assert_bulk_equals_scalar(calls, generator_with_zero_output(), generator_with_zero_output())


@pytest.mark.parametrize("k", [2, 4])
def test_power_of_two_bounds_never_reject(k):
    """A zero half is accepted as 0 for integers(k), k a power of two."""
    bulk = generator_with_zero_output()
    assert bulk.integers(k, size=2).tolist() == [0, 0]
    assert half_words_used(generator_with_zero_output(), [(k, 5)]) == 5
    assert_bulk_equals_scalar([(k, 5), (0, 5)], generator_with_zero_output(), generator_with_zero_output())

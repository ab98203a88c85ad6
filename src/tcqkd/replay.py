"""Bulk draws that replay a sequence of scalar generator calls exactly.

A session draws from each actor's numpy ``Generator`` (PCG64) one call
at a time: ``rng.random()`` for a measurement, ``rng.integers(k)`` for a
basis choice or a coin.  `replay_draws` returns the values of m
positions of such calls, each position making the same calls (slots) in
the same order, from one ``bit_generator.random_raw`` call, and leaves
the generator exactly where the scalar calls would have, so every later
draw of the stream is the same either way.

It reproduces numpy's stream layout:

* ``random()`` takes one 64-bit output ``x`` and returns
  ``(x >> 11) * 2**-53``;
* ``integers(k)`` for ``2 <= k < 2**32`` takes one 32-bit word ``w``
  and returns ``(w * k) >> 32``, Lemire's multiply-shift (ACM TOMACS
  29(1), 2019); the word is rejected, and another taken, when the low
  half of the product is below ``2**32 mod k``;
* PCG64 serves 32-bit words from the low half of a fresh 64-bit output
  and keeps the high half for the next word (``has_uint32`` and
  ``uinteger`` in its state); 64-bit draws leave that buffer alone;
* ``integers(1)`` draws nothing.

Period layout: when every slot is one bound, the draws repeat with a
period of one position, or of two when a position takes an odd number
of 32-bit words (the buffer then alternates).  One period is walked
once to find where each slot's draw comes from: an output column, its
low or its high half, or the high half carried in from the previous
period (the buffer on entry, for the first).  The outputs of all
positions are drawn at once and each slot is read as a strided column
of ``outputs.reshape(periods, per_period)``; a partial last period takes
only the outputs its positions use.

A slot may instead be an array of m bounds, an adversary's coin that
only some positions toss.  A run with such a slot is drawn by the flat
layout: one bound per call, whose outputs are found by cumulative sums.

Guard: rejection needs a range that is not a power of two, and then has
a probability of about ``2**-32`` per word.  If any word of a batch
would be rejected, on either layout, the generator is restored and the
batch is drawn by the scalar calls themselves.
"""

from __future__ import annotations

import numpy as np

_LOW32 = np.uint64(0xFFFFFFFF)
_TWO32 = np.uint64(2**32)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)
_DOUBLE_SCALE = 2.0**-53


def replay_draws(rng: np.random.Generator, slots, m: int) -> np.ndarray:
    """Values of m positions of the calls ``rng.random()`` (bound 0) and
    ``rng.integers(bound)`` (bound >= 1), one per slot in slot order
    within a position, as float64 of shape (len(slots), m).  A slot is
    one bound for every position or an array of m bounds.  Bounds must
    be below 2**32."""
    if m == 0:
        return np.zeros((len(slots), 0))
    if any(np.ndim(slot) for slot in slots):
        return _flat_draws(rng, slots, m)
    return _period_draws(rng, [int(slot) for slot in slots], m)


def _period_draws(rng: np.random.Generator, bounds: list, m: int) -> np.ndarray:
    bitgen = rng.bit_generator
    words = sum(b > 1 for b in bounds)
    saved = bitgen.state if words else None
    buffered = saved["has_uint32"] if words else 0
    period = 1 + words % 2
    # Per slot of each position of a period: its bound, and the output
    # column and part it reads ("high" of column -1 is the high half
    # carried in); per position, the last column whose high half went to
    # the buffer, and the number of columns used so far.
    plan, last_fresh, used = [], [], []
    width, held, last = 0, -1 if buffered else None, None
    for _ in range(period):
        for b in bounds:
            if b == 0:
                plan.append((b, width, "double"))
                width += 1
            elif b == 1:
                plan.append((b, None, None))
            elif held is not None:
                plan.append((b, held, "high"))
                held = None
            else:
                plan.append((b, width, "low"))
                held = last = width
                width += 1
        last_fresh.append(last)
        used.append(width)
    values = np.zeros((len(bounds), m))
    if not width:  # integers(1) only
        return values
    rows = -(-m // period)
    total = m // period * width + (used[0] if m % period else 0)
    outputs = bitgen.random_raw(total)
    if total < rows * width:  # a partial last period
        outputs = np.concatenate((outputs, np.zeros(rows * width - total, dtype=np.uint64)))
    outputs = outputs.reshape(rows, width)
    if words:
        carried = np.concatenate(([np.uint64(saved["uinteger"])],
                                  outputs[:-1, last_fresh[-1]] >> _SHIFT32))
    for at, (b, column, part) in enumerate(plan):
        if part is None:
            continue
        phase, slot = divmod(at, len(bounds))
        count = (m - phase + period - 1) // period  # positions of this phase
        if column < 0:
            word = carried[:count]
        elif part == "double":
            values[slot, phase::period] = (outputs[:count, column] >> _SHIFT11) * _DOUBLE_SCALE
            continue
        elif part == "low":
            word = outputs[:count, column] & _LOW32
        else:
            word = outputs[:count, column] >> _SHIFT32
        product = word * np.uint64(b)
        if 2**32 % b and np.any((product & _LOW32) < np.uint64(2**32 % b)):
            bitgen.state = saved
            return _scalar_draws(rng, bounds, m)
        values[slot, phase::period] = product >> _SHIFT32
    if words:
        state = bitgen.state
        state["has_uint32"] = (buffered + m * words) % 2
        column = last_fresh[(m - 1) % period]
        if column is not None:
            state["uinteger"] = int(outputs[-1, column] >> _SHIFT32)
        elif rows > 1:
            state["uinteger"] = int(carried[-1])
        bitgen.state = state
    return values


def _flat_draws(rng: np.random.Generator, slots, m: int) -> np.ndarray:
    bounds = np.column_stack([np.broadcast_to(slot, m) for slot in slots]).reshape(-1)
    bounds = bounds.astype(np.int64)
    is_double = bounds == 0
    words = np.flatnonzero(bounds > 1)  # the calls that take a 32-bit word
    values = np.zeros(len(bounds))
    if not len(words):  # doubles only: one bulk call draws them in order
        values[is_double] = rng.random(int(np.count_nonzero(is_double)))
        return values.reshape(m, len(slots)).T
    if not is_double.any() and (bounds[words] == bounds[words[0]]).all():  # one range only
        values[words] = rng.integers(bounds[words[0]], size=len(words))
        return values.reshape(m, len(slots)).T
    bitgen = rng.bit_generator
    saved = bitgen.state
    buffered = saved["has_uint32"]
    # Word t takes a fresh output when t + buffered is even; otherwise it
    # is the high half of word t - 1's output, or the buffer on entry.
    fresh = (np.arange(len(words)) + buffered) % 2 == 0
    takes_output = is_double.copy()
    takes_output[words[fresh]] = True
    outputs = bitgen.random_raw(int(np.count_nonzero(takes_output)))
    output_of = np.cumsum(takes_output) - 1
    values[is_double] = (outputs[output_of[is_double]] >> _SHIFT11) * _DOUBLE_SCALE
    own = outputs[output_of[words[fresh]]]
    highs = np.concatenate(([np.uint64(saved["uinteger"])], own >> _SHIFT32))
    word = np.empty(len(words), dtype=np.uint64)
    word[fresh] = own & _LOW32
    word[~fresh] = highs[np.cumsum(fresh)[~fresh]]
    k = bounds[words].astype(np.uint64)
    product = word * k
    if np.any((product & _LOW32) < _TWO32 % k):
        bitgen.state = saved
        return _scalar_draws(rng, slots, m)
    values[words] = product >> _SHIFT32
    state = bitgen.state
    state["has_uint32"] = (len(words) + buffered) % 2
    if len(own):
        state["uinteger"] = int(highs[-1])
    bitgen.state = state
    return values.reshape(m, len(slots)).T


def _scalar_draws(rng: np.random.Generator, slots, m: int) -> np.ndarray:
    """The scalar calls themselves, position by position."""
    columns = [np.broadcast_to(slot, m).tolist() for slot in slots]
    values = [rng.random() if b == 0 else rng.integers(b) for position in zip(*columns)
              for b in position]
    return np.array(values, dtype=float).reshape(m, len(slots)).T

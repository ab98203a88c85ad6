"""Bulk draws that replay a sequence of scalar generator calls exactly.

A session draws from each actor's numpy ``Generator`` (PCG64) one call
at a time: ``rng.random()`` for a measurement, ``rng.integers(k)`` for a
basis choice or a coin.  `replay_draws` returns the values of such a
sequence from one ``bit_generator.random_raw`` call (one
``rng.random(k)`` call when it holds no 32-bit draw, one
``rng.integers(k, size)`` call when every call that draws is
``integers(k)`` for one k) and leaves the
generator exactly where the scalar calls would have, so every later
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

Guard: rejection needs a range that is not a power of two, and then has
a probability of about ``2**-32`` per word.  If any word of a batch
would be rejected, the generator is restored and the batch is drawn by
the scalar calls themselves.
"""

from __future__ import annotations

import numpy as np

_LOW32 = np.uint64(0xFFFFFFFF)
_TWO32 = np.uint64(2**32)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)
_DOUBLE_SCALE = 2.0**-53


def replay_draws(rng: np.random.Generator, bounds) -> np.ndarray:
    """Values of the calls ``rng.random()`` (bound 0) and
    ``rng.integers(bound)`` (bound >= 1), made in the order of `bounds`,
    as float64.  Bounds must be below 2**32."""
    bounds = np.asarray(bounds, dtype=np.int64)
    is_double = bounds == 0
    words = np.flatnonzero(bounds > 1)  # the calls that take a 32-bit word
    values = np.zeros(len(bounds))
    if not len(words):  # doubles only: one bulk call draws them in order
        values[is_double] = rng.random(int(np.count_nonzero(is_double)))
        return values
    if not is_double.any() and (bounds[words] == bounds[words[0]]).all():  # one range only
        values[words] = rng.integers(bounds[words[0]], size=len(words))
        return values
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
        return _scalar_draws(rng, bounds)
    values[words] = product >> _SHIFT32
    state = bitgen.state
    state["has_uint32"] = (len(words) + buffered) % 2
    if len(own):
        state["uinteger"] = int(highs[-1])
    bitgen.state = state
    return values


def _scalar_draws(rng: np.random.Generator, bounds: np.ndarray) -> np.ndarray:
    return np.array([rng.random() if b == 0 else rng.integers(b) for b in bounds.tolist()],
                    dtype=float)

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from tcqkd import AncillaEntangle, ProtocolId, SessionConfig, postproc, run_session
from tcqkd.postproc import (
    binary_entropy,
    final_key_length,
    privacy_amplify,
    reconcile,
    toeplitz_hash,
)


# 200 examples per new property, or the loaded profile's count when it
# is larger (CI runs this file with --hypothesis-profile=deep-ci).
PROPERTY = settings(max_examples=max(200, settings.default.max_examples), deadline=None)


def random_bits(rng, n):
    return "".join("01"[v] for v in rng.integers(0, 2, n))


def flip(bits, positions):
    out = list(bits)
    for p in positions:
        out[p] = "01"[1 - int(out[p])]
    return "".join(out)


class TestReconcile:
    def test_zero_error_leak_and_identity(self):
        a = "0110" * 64
        corrected, leaked = reconcile(a, a, passes=2, initial_block=8)
        assert corrected == a
        assert leaked == 2 * math.ceil(len(a) / 8)

    def test_single_error_within_leak_bound(self):
        rng = np.random.default_rng(5)
        a = random_bits(rng, 512)
        b = flip(a, [200])
        corrected, leaked = reconcile(a, b, passes=2, initial_block=8)
        assert corrected == a
        assert leaked <= 2 * math.ceil(512 / 8) + 2 * math.ceil(math.log2(8))

    def test_ten_percent_errors_residual_rate(self):
        # Monte Carlo over the implemented scheme: 100 seeded trials at
        # n=4096, 10% errors, blocks sized 0.73/qber, 2 passes.
        total_bits = 0
        total_residual = 0
        block = max(8, math.ceil(0.73 / 0.1))
        for trial in range(100):
            rng = np.random.default_rng(1000 + trial)
            alice = random_bits(rng, 4096)
            bob = flip(alice, rng.choice(4096, size=410, replace=False))
            corrected, _ = reconcile(alice, bob, passes=2, initial_block=block, seed=trial)
            total_bits += 4096
            total_residual += sum(1 for x, y in zip(alice, corrected) if x != y)
        assert total_residual / total_bits < 0.001

    def test_leakage_monotone_in_errors(self):
        rng = np.random.default_rng(9)
        a = random_bits(rng, 1024)
        _, leak0 = reconcile(a, a, passes=2, initial_block=8)
        _, leak1 = reconcile(a, flip(a, [5, 700]), passes=2, initial_block=8)
        assert leak1 >= leak0

    def test_empty_and_mismatch(self):
        assert reconcile("", "", 2, 8) == ("", 0)
        with pytest.raises(ValueError):
            reconcile("01", "0", 2, 8)

    @pytest.mark.parametrize("alice, bob", [("0120", "0100"), ("0100", "0120"), ("01 0", "0100"),
                                            ("01/0", "0100"), ("01\u00e90", "0100")])
    def test_non_bit_characters_rejected(self, alice, bob):
        with pytest.raises(ValueError, match="must contain only '0' and '1'"):
            reconcile(alice, bob, 2, 2)

    @pytest.mark.parametrize("name,value", [("passes", 0), ("passes", -3), ("initial_block", 0)])
    def test_count_below_one_rejected(self, name, value):
        key = "0110" * 8
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            reconcile(key, key, **{name: value})

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        a = random_bits(rng, 2048)
        b = flip(a, rng.choice(2048, size=100, replace=False))
        assert reconcile(a, b, 2, 8, seed=3) == reconcile(a, b, 2, 8, seed=3)


class TestReconcileMatchesReference:
    @pytest.mark.parametrize("initial_block", [1, 3, 8, 59, "n+3"])
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 257, 4000])
    def test_equals_per_parity_reference(self, n, initial_block):
        block = n + 3 if initial_block == "n+3" else initial_block
        for passes in range(1, 5):
            for qi, qber in enumerate([0.0, 0.04, 0.2, 0.5]):
                rng = np.random.default_rng([n, block, passes, qi])
                alice = random_bits(rng, n)
                bob = flip(alice, np.flatnonzero(rng.random(n) < qber))
                seed = 4 * passes + qi
                assert reconcile(alice, bob, passes, block, seed) == \
                    oracle.reconcile(alice, bob, passes, block, seed), (passes, qber)

    @PROPERTY
    @given(st.data(), st.integers(min_value=1, max_value=600), st.integers(min_value=1, max_value=4),
           st.floats(min_value=0.0, max_value=0.5), st.integers(min_value=0, max_value=2**64 - 1))
    def test_equals_reference_any_shape(self, data, n, passes, qber, seed):
        block = data.draw(st.integers(min_value=1, max_value=n + 3), label="block")
        rng = np.random.default_rng(seed)
        alice = random_bits(rng, n)
        bob = flip(alice, np.flatnonzero(rng.random(n) < qber))
        assert reconcile(alice, bob, passes, block, seed) == oracle.reconcile(alice, bob, passes, block, seed)

    @PROPERTY
    @given(st.data(), st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=2**32 - 1))
    def test_batched_search_equals_binary_search(self, data, n, seed):
        # Every odd-weight block of one partition, searched at once.
        block = data.draw(st.integers(min_value=1, max_value=n + 3), label="block")
        diff = (np.random.default_rng(seed).random(n) < data.draw(st.floats(0.0, 1.0), label="p")
                ).astype(np.uint8)
        starts = np.arange(0, n, block)
        ends = np.minimum(starts + block, n)
        odd = np.flatnonzero(np.add.reduceat(diff, starts) & 1)
        found, disclosed = postproc._search_blocks(diff, starts[odd], ends[odd])
        expected = [postproc._binary_search(diff[lo:hi].tolist()) for lo, hi in zip(starts[odd], ends[odd])]
        assert [(int(f - lo), int(d)) for f, lo, d in zip(found, starts[odd], disclosed)] == expected


class TestReconcilePinned:
    """Leaks and corrected bits pinned from the implementation that ran
    every pass in full, over keys equal on entry (QBER 0), keys that
    agree after one pass (every block-1 case), keys that never agree
    (QBER 0.5 at blocks 8 and 80) and keys that agree after two to four.
    Per (n, qber): the leaks of passes 1-4 x blocks 1, 8, 80, and the
    sha256 prefix of the corrected bits of all twelve, concatenated."""

    @pytest.mark.parametrize("n, qber, leaks, digest", [
        (1, 0.0, [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4], "15ec7bf0b50732b4"),
        (1, 0.05, [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4], "3ee5f0d83bf791f0"),
        (9, 0.0, [9, 2, 1, 18, 4, 2, 27, 6, 3, 36, 8, 4], "c9bb3c4af62ebb06"),
        (9, 0.05, [9, 2, 1, 18, 4, 2, 27, 6, 3, 36, 8, 4], "509a0410082e68a9"),
        (9, 0.2, [9, 2, 5, 18, 4, 6, 27, 6, 7, 36, 8, 8], "8a93e5d6cbd57ecd"),
        (9, 0.5, [9, 2, 1, 18, 4, 2, 27, 12, 3, 36, 14, 4], "fdfd945d0899c651"),
        (257, 0.0, [257, 33, 4, 514, 66, 8, 771, 99, 12, 1028, 132, 16], "c1a6b33420db5039"),
        (257, 0.01, [257, 39, 4, 514, 72, 21, 771, 105, 22, 1028, 138, 16], "1e0a45c2198fb6ac"),
        (257, 0.05, [257, 66, 10, 514, 105, 36, 771, 138, 95, 1028, 171, 96], "5ff1c417f75823fa"),
        (257, 0.2, [257, 102, 11, 514, 219, 15, 771, 252, 31, 1028, 285, 323], "8aa559a4553fb60b"),
        (257, 0.5, [257, 75, 16, 514, 483, 30, 771, 519, 235, 1028, 549, 660], "1dbf395bca636f34"),
        (5000, 0.0, [5000, 625, 63, 10000, 1250, 126, 15000, 1875, 189, 20000, 2500, 252],
         "c46ad2dfe84fceb6"),
        (5000, 0.01, [5000, 748, 149, 10000, 1379, 398, 15000, 2004, 465, 20000, 2629, 529],
         "fd027438b96716af"),
        (5000, 0.05, [5000, 1141, 296, 10000, 2006, 1600, 15000, 2631, 1803, 20000, 3256, 1858],
         "15d17c5c3e746403"),
        (5000, 0.2, [5000, 1522, 209, 10000, 4319, 2176, 15000, 4944, 6705, 20000, 5569, 6795],
         "a6a45bf5420212c3"),
        (5000, 0.5, [5000, 1609, 236, 10000, 8588, 4926, 15000, 9285, 15896, 20000, 9910, 15948],
         "159a83aeb4d34d5d"),
    ])
    def test_pinned_leaks_and_bits(self, n, qber, leaks, digest):
        rng = np.random.default_rng([n, int(qber * 1000)])
        alice = rng.integers(0, 2, n).astype(np.uint8)
        bob = alice ^ (rng.random(n) < qber).astype(np.uint8)
        h = hashlib.sha256()
        got = []
        for passes in range(1, 5):
            for block in [1, 8, 80]:
                seed = 10 * passes + block
                corrected, leaked = reconcile(alice, bob, passes, block, seed)
                assert reconcile(postproc.bits_to_str(alice), postproc.bits_to_str(bob), passes, block,
                                 seed) == (postproc.bits_to_str(corrected), leaked)
                h.update(corrected.tobytes())
                got.append(leaked)
        assert got == leaks
        assert h.hexdigest()[:16] == digest

    @staticmethod
    def count_shuffles(monkeypatch):
        calls = []
        real = np.random.default_rng

        class Counting:
            def __init__(self, seed):
                self.rng = real(seed)

            def permutation(self, n):
                calls.append(n)
                return self.rng.permutation(n)

        monkeypatch.setattr(postproc.np.random, "default_rng", Counting)
        return calls

    @pytest.mark.parametrize("n, block", [(1, 1), (9, 8), (257, 8), (5000, 80), (40500, 61)])
    @pytest.mark.parametrize("passes", [1, 2, 3, 4])
    def test_equal_keys_draw_no_shuffle(self, monkeypatch, n, block, passes):
        key = np.random.default_rng(n).integers(0, 2, n).astype(np.uint8)
        calls = self.count_shuffles(monkeypatch)
        corrected, leaked = reconcile(key, key.copy(), passes, block, seed=n)
        assert calls == []
        assert np.array_equal(corrected, key)
        assert leaked == passes * math.ceil(n / block)

    def test_keys_agreeing_after_one_pass_draw_no_shuffle(self, monkeypatch):
        # Block 1 discloses every bit's parity, so one pass corrects all.
        rng = np.random.default_rng(3)
        alice = random_bits(rng, 500)
        bob = flip(alice, np.flatnonzero(rng.random(500) < 0.1))
        calls = self.count_shuffles(monkeypatch)
        assert reconcile(alice, bob, 3, 1, seed=4) == (alice, 3 * 500)
        assert calls == []
        reconcile(alice, bob, 3, 8, seed=4)  # errors left after one pass: shuffles drawn
        assert calls


def count_hashes(monkeypatch):
    calls = []
    real = postproc.privacy_amplify
    monkeypatch.setattr(postproc, "privacy_amplify", lambda *a: calls.append(a[0]) or real(*a))
    return calls


class TestSingleHash:
    def test_equal_keys_are_hashed_once(self, monkeypatch):
        calls = count_hashes(monkeypatch)
        tr = run_session(SessionConfig(ProtocolId.GHZ2, 5000, rng_seed=1))
        assert len(calls) == 1
        assert tr.alice_final_key and tr.bob_final_key == tr.alice_final_key

    def test_unequal_keys_are_hashed_each(self, monkeypatch):
        # Reconciliation is patched to leave one residual error in Bob's
        # key, so the keys differ before and after hashing.  Sessions pass
        # the keys as uint8 arrays.
        calls = count_hashes(monkeypatch)
        real = postproc.reconcile

        def one_error_left(*args, **kwargs):
            bob, leaked = real(*args, **kwargs)
            bob[-1] ^= 1
            return bob, leaked

        monkeypatch.setattr(postproc, "reconcile", one_error_left)
        tr = run_session(SessionConfig(ProtocolId.GHZ1, 5000, qber_abort_threshold=0.3, rng_seed=1,
                                       attack=AncillaEntangle(coupling=0.1)))
        assert len(calls) == 2
        assert postproc.bits_to_str(calls[0]) == tr.alice_raw_key
        assert not np.array_equal(calls[1], calls[0])
        assert tr.alice_final_key and tr.bob_final_key != tr.alice_final_key


class TestPrivacyAmplify:
    def test_final_length_reference_value(self):
        # independent arithmetic: floor(1024*(1-h2(0.05))) - 100 - 64
        h2 = -(0.05 * math.log2(0.05)) - 0.95 * math.log2(0.95)
        expected = math.floor(1024 * (1 - h2)) - 100 - 64
        assert expected == 566
        assert final_key_length(1024, 0.05, 100, 2.0**-32) == 566

    def test_no_compression_needed(self):
        key = "10" * 64
        out = privacy_amplify(key, 0, 0.0, 1.0, seed=1)
        assert len(out) == len(key)

    def test_qber_half_yields_empty(self):
        assert privacy_amplify("01" * 500, 0, 0.5, 2.0**-32, seed=1) == ""

    def test_binary_entropy_edges(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert abs(binary_entropy(0.5) - 1.0) <= 1e-15

    def test_linearity(self):
        rng = np.random.default_rng(8)
        x = random_bits(rng, 300)
        y = random_bits(rng, 300)
        xy = "".join("01"[int(c) ^ int(d)] for c, d in zip(x, y))
        hx = privacy_amplify(x, 20, 0.03, 2.0**-16, seed=5)
        hy = privacy_amplify(y, 20, 0.03, 2.0**-16, seed=5)
        hxy = privacy_amplify(xy, 20, 0.03, 2.0**-16, seed=5)
        assert "".join("01"[int(c) ^ int(d)] for c, d in zip(hx, hy)) == hxy

    def test_deterministic_given_seed(self):
        key = "0110" * 100
        assert privacy_amplify(key, 5, 0.01, 2.0**-32, 17) == privacy_amplify(key, 5, 0.01, 2.0**-32, 17)
        assert privacy_amplify(key, 5, 0.01, 2.0**-32, 17) != privacy_amplify(key, 5, 0.01, 2.0**-32, 18)

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            privacy_amplify("", 0, 0.0, 0.5, 1)

    @pytest.mark.parametrize("epsilon", [0, -0.5, 1.5])
    def test_epsilon_outside_unit_interval_rejected(self, epsilon):
        with pytest.raises(ValueError, match=r"epsilon must be in \(0, 1\]"):
            final_key_length(100, 0.0, 0, epsilon)

    @pytest.mark.parametrize("qber", [0.0, 0.5])
    def test_non_bit_characters_rejected(self, qber):
        # qber 0.5 leaves a 0-bit key: the input is checked all the same.
        with pytest.raises(ValueError, match="key must contain only '0' and '1'"):
            privacy_amplify("0120" * 100, 0, qber, 2.0**-32, seed=1)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4096),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=500),
        st.sampled_from([1.0, 0.5, 2.0**-16, 2.0**-32, 2.0**-64]),
    )
    def test_length_law(self, n, qber, leaked, epsilon):
        key = "1" * n
        out = privacy_amplify(key, leaked, qber, epsilon, seed=0)
        margin = math.ceil(2 * math.log2(1 / epsilon))
        expected = max(0, math.floor(n * (1 - binary_entropy(qber))) - leaked - margin)
        assert len(out) == expected


def as_array(bits):
    """The uint8 array of 0/1 that a '0'/'1' string spells."""
    return np.array([int(c) for c in bits], dtype=np.uint8)


class TestArrayKeys:
    """A 0/1 uint8 array is the same key as its '0'/'1' string."""

    @staticmethod
    def assert_same_bits(alice, bob, passes, block, seed):
        bob_str, leaked_str = reconcile(alice, bob, passes, block, seed)
        bob_arr, leaked_arr = reconcile(as_array(alice), as_array(bob), passes, block, seed)
        assert bob_arr.dtype == np.uint8 and postproc.bits_to_str(bob_arr) == bob_str
        assert leaked_arr == leaked_str
        for key in (alice, bob_str):
            assert privacy_amplify(as_array(key), 0, 0.05, 2.0**-8, seed) == \
                privacy_amplify(key, 0, 0.05, 2.0**-8, seed)
        return bob_str

    @pytest.mark.parametrize("n, qber, passes, block, seed, residual", [
        (1, 0.0, 1, 8, 0, False), (1, 1.0, 1, 8, 0, False), (9, 0.0, 2, 8, 1, False),
        (700, 0.03, 3, 8, 2, False), (3000, 0.0, 1, 8, 3, False), (3000, 0.3, 3, 8, 4, False),
        (700, 0.2, 1, 8, 701, True), (3000, 0.1, 1, 8, 3001, True), (3000, 0.1, 2, 64, 3002, True),
        (2000, 0.3, 2, 8, 2002, True), (2500, 0.2, 3, 16, 1, True),
    ])
    def test_string_and_array_give_the_same_bits(self, n, qber, passes, block, seed, residual):
        rng = np.random.default_rng([n, passes, int(qber * 100)])
        alice = random_bits(rng, n)
        bob = flip(alice, np.flatnonzero(rng.random(n) < qber))
        bob_rec = self.assert_same_bits(alice, bob, passes, block, seed)
        assert (bob_rec != alice) == residual

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=3),
           st.floats(min_value=0.0, max_value=0.5), st.integers(min_value=0, max_value=2**63 - 1))
    def test_string_and_array_give_the_same_bits_any_shape(self, data, n, passes, qber, seed):
        block = data.draw(st.integers(min_value=1, max_value=n + 3), label="block")
        rng = np.random.default_rng(seed)
        alice = random_bits(rng, n)
        self.assert_same_bits(alice, flip(alice, np.flatnonzero(rng.random(n) < qber)), passes, block, seed)

    @pytest.mark.parametrize("key", [
        np.array([0, 1, 2, 0], dtype=np.uint8), np.array([255, 0, 1, 1], dtype=np.uint8),
        np.array([0, 1, 1, 0], dtype=np.int8), np.array([0, 1, 1, 0], dtype=np.int64),
        np.array([0, 1, 1, 0], dtype=np.uint16), np.array([0.0, 1.0, 1.0, 0.0]),
        np.array([False, True, True, False]), np.array([[0], [1], [1], [0]], dtype=np.uint8),
        [0, 1, 1, 0], b"0110",
    ], ids=["two", "255", "int8", "int64", "uint16", "float64", "bool", "2-d", "list", "bytes"])
    def test_other_values_or_dtypes_rejected(self, key):
        good = np.array([0, 1, 1, 0], dtype=np.uint8)
        for name, call in [("alice", lambda: reconcile(key, good, 2, 2)),
                           ("bob", lambda: reconcile(good, key, 2, 2)),
                           ("key", lambda: privacy_amplify(key, 0, 0.0, 1.0, seed=1)),
                           ("key", lambda: privacy_amplify(key, 0, 0.5, 1.0, seed=1))]:
            with pytest.raises(ValueError, match=rf"^{name} must contain only '0' and '1'$"):
                call()


def convolve_slice(diagonals, bits):
    """Exact reference: T @ bits mod 2 as a slice of the full convolution."""
    n = len(bits)
    m = len(diagonals) - n + 1
    return np.convolve(diagonals, bits)[n - 1:n - 1 + m] & 1


def hash_inputs(seed, n, m):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=m + n - 1, dtype=np.int64), rng.integers(0, 2, size=n, dtype=np.int64)


class TestToeplitzHash:
    @pytest.mark.parametrize("n, m", [(1, 1), (1, 9), (9, 1), (7, 5), (13, 13), (1000, 333), (1025, 700)])
    def test_fft_route_equals_convolution(self, n, m):
        diagonals, bits = hash_inputs(n * 7919 + m, n, m)
        out = toeplitz_hash(diagonals, bits)
        assert out.shape == (m,)
        assert np.array_equal(out, convolve_slice(diagonals, bits))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=300),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_fft_route_equals_convolution_any_shape(self, n, m, seed):
        diagonals, bits = hash_inputs(seed, n, m)
        assert np.array_equal(toeplitz_hash(diagonals, bits), convolve_slice(diagonals, bits))

    @pytest.mark.parametrize("ones", [False, True])
    def test_fft_route_exact_near_1e5_bits(self, ones):
        # The full convolution at this size is quadratic, so the reference
        # is its valid-mode form: the same slice (checked below at a small
        # size), computed in O(m n).  All-ones inputs give every sum its
        # largest value, n.
        n, m = 100_003, 129
        diagonals, bits = hash_inputs(5, n, m)
        if ones:
            diagonals[:] = 1
            bits[:] = 1
        small_d, small_b = hash_inputs(6, 50, 20)
        assert np.array_equal(np.convolve(small_d, small_b, mode="valid") & 1,
                              convolve_slice(small_d, small_b))
        expected = np.convolve(diagonals, bits, mode="valid") & 1
        assert np.array_equal(toeplitz_hash(diagonals, bits), expected)

    def test_privacy_amplify_equals_convolution(self):
        key = random_bits(np.random.default_rng(9), 3001)
        m = final_key_length(3001, 0.02, 150, 2.0**-32)
        diagonals = np.random.default_rng(23).integers(0, 2, size=m + 3001 - 1, dtype=np.int64)
        bits = np.array([int(c) for c in key], dtype=np.int64)
        expected = "".join("01"[v] for v in convolve_slice(diagonals, bits))
        assert privacy_amplify(key, 150, 0.02, 2.0**-32, seed=23) == expected

    # Sessions hash uint8 key bits; int64 is the dtype of the diagonals.
    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    def test_fft_route_skips_the_exact_convolution(self, monkeypatch, dtype):
        calls = []
        real = np.convolve
        monkeypatch.setattr(np, "convolve", lambda *a, **k: calls.append(1) or real(*a, **k))
        diagonals, bits = hash_inputs(3, 500, 200)
        toeplitz_hash(diagonals, bits.astype(dtype))
        assert calls == []

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    def test_off_integer_fft_result_takes_exact_route(self, monkeypatch, dtype):
        diagonals, bits = hash_inputs(4, 777, 311)
        bits = bits.astype(dtype)
        expected = toeplitz_hash(diagonals, bits)
        calls = []
        real_convolve, real_irfft = np.convolve, np.fft.irfft
        monkeypatch.setattr(np, "convolve", lambda *a, **k: calls.append(1) or real_convolve(*a, **k))
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: real_irfft(*a, **k) + 0.4)
        out = toeplitz_hash(diagonals, bits)
        assert calls == [1]
        assert np.array_equal(out, expected)
        assert np.array_equal(out, convolve_slice(diagonals, bits))

    def test_import_does_not_load_fft(self):
        src = str(Path(__import__("tcqkd").__file__).resolve().parents[1])
        code = "import sys, tcqkd; print('numpy.fft' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"


def smooth(size):
    for p in (2, 3, 5):
        while size % p == 0:
            size //= p
    return size == 1


def record_fft(monkeypatch):
    """The transform lengths rfft/irfft are asked for, and every np.convolve call."""
    sizes, convolve = [], []
    real_rfft, real_irfft, real_convolve = np.fft.rfft, np.fft.irfft, np.convolve
    monkeypatch.setattr(np.fft, "rfft", lambda a, n=None, *r, **k: sizes.append(n) or real_rfft(a, n, *r, **k))
    monkeypatch.setattr(np.fft, "irfft", lambda a, n=None, *r, **k: sizes.append(n) or real_irfft(a, n, *r, **k))
    monkeypatch.setattr(np, "convolve", lambda *a, **k: convolve.append(1) or real_convolve(*a, **k))
    return sizes, convolve


class TestToeplitzHashSize:
    @pytest.mark.parametrize("n, m", [(1, 1), (1, 9), (9, 1), (7, 5), (1000, 333), (2000, 1700)])
    def test_smallest_5_smooth_length(self, monkeypatch, n, m):
        sizes, _ = record_fft(monkeypatch)
        toeplitz_hash(*hash_inputs(n + m, n, m))
        size = sizes[0]
        assert sizes == [size] * 3
        assert size >= m + n - 1 and smooth(size)
        assert not any(smooth(k) for k in range(m + n - 1, size))

    @PROPERTY
    @given(st.integers(min_value=1, max_value=2000), st.integers(min_value=1, max_value=2000),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_any_shape_takes_the_fft_route(self, n, m, seed):
        diagonals, bits = hash_inputs(seed, n, m)
        expected = convolve_slice(diagonals, bits)
        with pytest.MonkeyPatch.context() as mp:
            sizes, convolve = record_fft(mp)
            out = toeplitz_hash(diagonals, bits)
        assert convolve == []
        assert sizes[0] >= m + n - 1 and smooth(sizes[0])
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("n, m, ones", [(40_500, 34_209, False), (100_003, 129, True)])
    def test_long_keys_take_the_fft_route(self, monkeypatch, n, m, ones):
        # The distill_long benchmark's shape, and the largest sums (all
        # ones): a guard that fell back here would make the hash quadratic.
        diagonals, bits = hash_inputs(7, n, m)
        if ones:
            diagonals[:] = 1
            bits[:] = 1
        sizes, convolve = record_fft(monkeypatch)
        out = toeplitz_hash(diagonals, bits)
        assert out.shape == (m,)
        assert convolve == []
        assert sizes[0] >= m + n - 1 and smooth(sizes[0])
        assert sizes[0] < 1 << (m + 2 * n - 3).bit_length()

    @pytest.mark.parametrize("d, b", [(5, 6), (0, 1), (3, 0), (0, 0)])
    def test_shape_it_cannot_hash_rejected(self, d, b):
        with pytest.raises(ValueError, match=r"^toeplitz_hash needs 1 <= len\(bits\) <= len\(diagonals\), "
                                             rf"got {b} bits and {d} diagonals$"):
            toeplitz_hash(np.ones(d, dtype=np.int64), np.ones(b, dtype=np.int64))

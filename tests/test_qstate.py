import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcqkd.qstate import (
    ATOL,
    Basis,
    GHZ,
    Outcome,
    Register,
    StateVector,
    TwoQubitLabel,
    apply_x_probe,
    collapse,
    inner_product,
    make_cat,
    make_eigenstate,
    make_two_qubit,
    outcome_distribution,
)

import oracle

SQ = 1 / math.sqrt(2)


def vec(state):
    return state.amplitudes


def close(a, b, atol=ATOL):
    return np.max(np.abs(np.asarray(a) - np.asarray(b))) <= atol


class TestEigenstates:
    def test_z_plus_is_computational_zero(self):
        assert close(vec(make_eigenstate(Basis.Z, Outcome.PLUS)), [1, 0])

    def test_x_plus(self):
        assert close(vec(make_eigenstate(Basis.X, Outcome.PLUS)), [SQ, SQ])

    def test_y_minus(self):
        assert close(vec(make_eigenstate(Basis.Y, Outcome.MINUS)), [SQ, -1j * SQ])

    @pytest.mark.parametrize("basis", list(Basis))
    def test_orthonormal(self, basis):
        p = make_eigenstate(basis, Outcome.PLUS)
        m = make_eigenstate(basis, Outcome.MINUS)
        assert abs(inner_product(p, p) - 1) <= ATOL
        assert abs(inner_product(p, m)) <= ATOL


class TestConstructors:
    def test_cat_3_plus_is_ghz(self):
        amps = vec(make_cat(3, "+"))
        assert close(amps, oracle.GHZ3)
        assert abs(amps[0] - SQ) <= ATOL and abs(amps[7] - SQ) <= ATOL
        assert close(amps[1:7], np.zeros(6))

    def test_cat_2_plus_is_psi_plus(self):
        assert close(vec(make_cat(2, "+")), vec(make_two_qubit(TwoQubitLabel.PSI_PLUS)))

    def test_cat_pair_orthogonal(self):
        assert abs(inner_product(make_cat(2, "+"), make_cat(2, "-"))) <= ATOL

    def test_cat_4(self):
        amps = vec(make_cat(4, "-"))
        assert abs(amps[0] - SQ) <= ATOL and abs(amps[15] + SQ) <= ATOL

    @pytest.mark.parametrize("n,sign,message", [
        (0, "+", "cat states supported for 2..4 qubits, got 0"),
        (1, "+", "cat states supported for 2..4 qubits, got 1"),
        (5, "+", "cat states supported for 2..4 qubits, got 5"),
        (3, "*", "relative_sign must be '\\+' or '-', got '\\*'"),
    ])
    def test_cat_bad_arguments(self, n, sign, message):
        with pytest.raises(ValueError, match=message):
            make_cat(n, sign)

    @pytest.mark.parametrize(
        "label,expected",
        [
            (TwoQubitLabel.PSI_PLUS, oracle.PSI_PLUS),
            (TwoQubitLabel.PSI_MINUS, oracle.PSI_MINUS),
            (TwoQubitLabel.PHI_PLUS, oracle.PHI_PLUS),
            (TwoQubitLabel.PHI_MINUS, oracle.PHI_MINUS),
            (TwoQubitLabel.COMB_PSI_PLUS, oracle.COMB_PSI_PLUS),
            (TwoQubitLabel.COMB_PHI_MINUS, oracle.COMB_PHI_MINUS),
        ],
    )
    def test_two_qubit_against_oracle(self, label, expected):
        assert close(vec(make_two_qubit(label)), expected)

    # sha256 of each pair state's amplitude bytes: a change to how the
    # states are built must leave every amplitude bit for bit as it is.
    @pytest.mark.parametrize("label,digest", [
        (TwoQubitLabel.PSI_PLUS, "37fe4d07afc183c37066a83fb1e1ccff488c19a4bd0fe73a2ea8233dfe0ae1a0"),
        (TwoQubitLabel.PSI_MINUS, "4d466c04d2819594f45f6589ba9e62573f123496eb36ae5cc4f1b61f153de6d7"),
        (TwoQubitLabel.PHI_PLUS, "1620cdb16cd4ce854e914462dc1a6c975164ee8fb8c93a94043886b18d700c18"),
        (TwoQubitLabel.PHI_MINUS, "8b07e6791ec242c2409bad4f74c51d113be113bc29284badc0cb53cb2732bf74"),
        (TwoQubitLabel.COMB_PSI_PLUS, "4fbcdd8fc223299c8007dac3398347a42e288d15255b254557a8b27bf34eb33f"),
        (TwoQubitLabel.COMB_PHI_MINUS, "ef9c21fe1ae4b9c3f62a80f641b11bf775da11d0c4b55254ebbf358a8c0c9f8f"),
    ])
    def test_two_qubit_amplitudes_are_pinned(self, label, digest):
        assert hashlib.sha256(make_two_qubit(label).amplitudes.tobytes()).hexdigest() == digest

    def test_two_qubit_refuses_a_non_label(self):
        with pytest.raises(ValueError, match="^unknown label bogus$"):
            make_two_qubit("bogus")

    def test_norms(self):
        for label in TwoQubitLabel:
            s = make_two_qubit(label)
            assert abs(float(np.sum(np.abs(s.amplitudes) ** 2)) - 1) <= ATOL

    def test_statevector_rejects_bad_input(self):
        with pytest.raises(ValueError):
            StateVector([1.0])  # not a qubit register
        with pytest.raises(ValueError):
            StateVector([0.9, 0.0])  # unnormalized
        with pytest.raises(ValueError):
            StateVector([np.nan, 0.0])
        with pytest.raises(ValueError):
            StateVector(np.zeros(32))  # five qubits

    def test_statevector_repr(self):
        assert repr(make_eigenstate(Basis.Z, Outcome.MINUS)) == "StateVector(1 qubits, [0j, (1+0j)])"

    def test_statevector_immutable(self):
        s = make_eigenstate(Basis.Z, Outcome.PLUS)
        with pytest.raises(AttributeError):
            s.num_qubits = 3
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0


class TestBasisChangeIdentities:
    """The x-basis forms of the pair states equal their z-basis forms."""

    def test_psi_plus_x_form(self):
        x_form = oracle.S * (oracle.kron(oracle.XP, oracle.XP) + oracle.kron(oracle.XM, oracle.XM))
        assert close(vec(make_two_qubit(TwoQubitLabel.PSI_PLUS)), x_form)

    def test_psi_minus_x_form(self):
        x_form = oracle.S * (oracle.kron(oracle.XP, oracle.XM) + oracle.kron(oracle.XM, oracle.XP))
        assert close(vec(make_two_qubit(TwoQubitLabel.PSI_MINUS)), x_form)

    def test_phi_plus_x_form(self):
        x_form = oracle.S * (oracle.kron(oracle.XP, oracle.XP) - oracle.kron(oracle.XM, oracle.XM))
        assert close(vec(make_two_qubit(TwoQubitLabel.PHI_PLUS)), x_form)

    def test_phi_minus_x_form(self):
        x_form = oracle.S * (oracle.kron(oracle.XM, oracle.XP) - oracle.kron(oracle.XP, oracle.XM))
        assert close(vec(make_two_qubit(TwoQubitLabel.PHI_MINUS)), x_form)

    def test_comb_psi_plus_mixed_forms(self):
        a = oracle.S * (oracle.kron(oracle.XP, oracle.ZP) + oracle.kron(oracle.XM, oracle.ZM))
        b = oracle.S * (oracle.kron(oracle.ZP, oracle.XP) + oracle.kron(oracle.ZM, oracle.XM))
        state = vec(make_two_qubit(TwoQubitLabel.COMB_PSI_PLUS))
        assert close(state, a)
        assert close(state, b)

    def test_comb_phi_minus_mixed_forms(self):
        # Derived forms; the transcription's printed signs for this
        # state are inconsistent with its own linear-combination
        # definition, which wins.
        a = oracle.S * (oracle.kron(oracle.XM, oracle.ZP) - oracle.kron(oracle.XP, oracle.ZM))
        b = oracle.S * (oracle.kron(oracle.ZP, oracle.XM) - oracle.kron(oracle.ZM, oracle.XP))
        state = vec(make_two_qubit(TwoQubitLabel.COMB_PHI_MINUS))
        assert close(state, a)
        assert close(state, b)


class TestInnerProduct:
    def test_self(self):
        assert abs(inner_product(make_two_qubit(TwoQubitLabel.PSI_PLUS),
                                 make_two_qubit(TwoQubitLabel.PSI_PLUS)) - 1) <= ATOL

    def test_orthogonal_pairs(self):
        assert abs(inner_product(make_two_qubit(TwoQubitLabel.PSI_MINUS),
                                 make_two_qubit(TwoQubitLabel.PHI_PLUS))) <= ATOL

    def test_comb_overlaps(self):
        # The four BELL5 states are not mutually orthogonal.
        comb = make_two_qubit(TwoQubitLabel.COMB_PSI_PLUS)
        assert abs(inner_product(make_two_qubit(TwoQubitLabel.PHI_PLUS), comb) - SQ) <= ATOL
        assert abs(inner_product(make_two_qubit(TwoQubitLabel.PSI_MINUS), comb) - SQ) <= ATOL

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(GHZ, make_two_qubit(TwoQubitLabel.PSI_PLUS))


class TestDistributionAndMeasure:
    def test_ghz_x_uniform(self):
        assert close(outcome_distribution(GHZ, 0, Basis.X), (0.5, 0.5))

    def test_eigenstate_in_own_basis(self):
        s = StateVector(np.kron(vec(make_eigenstate(Basis.Z, Outcome.PLUS)),
                                vec(make_eigenstate(Basis.Y, Outcome.MINUS))))
        assert close(outcome_distribution(s, 0, Basis.Z), (1.0, 0.0))

    def test_psi_minus_x_uniform(self):
        assert close(outcome_distribution(make_two_qubit(TwoQubitLabel.PSI_MINUS), 0, Basis.X),
                     (0.5, 0.5))

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            outcome_distribution(GHZ, 3, Basis.X)
        with pytest.raises(IndexError):
            collapse(GHZ, -1, Basis.X, Outcome.PLUS)

    def test_collapse_ghz_x_plus(self):
        _, pair = collapse(GHZ, 0, Basis.X, Outcome.PLUS)
        expected = oracle.S * (oracle.kron(oracle.XP, oracle.XP) + oracle.kron(oracle.XM, oracle.XM))
        assert close(vec(pair), expected)

    def test_collapse_ghz_x_minus(self):
        _, pair = collapse(GHZ, 0, Basis.X, Outcome.MINUS)
        expected = oracle.S * (oracle.kron(oracle.XP, oracle.XM) + oracle.kron(oracle.XM, oracle.XP))
        assert close(vec(pair), expected)

    def test_ghz_y_collapses_match_oracle(self):
        # The y decompositions as printed in the transcription are
        # internally inconsistent; the projection itself is the
        # authority.  Center y+ leaves (z+z+ - i z-z-)/sqrt(2).
        _, pair = collapse(GHZ, 0, Basis.Y, Outcome.PLUS)
        expected = oracle.S * (oracle.kron(oracle.ZP, oracle.ZP) - 1j * oracle.kron(oracle.ZM, oracle.ZM))
        assert close(vec(pair), expected)
        mixed = oracle.S * (oracle.kron(oracle.YP, oracle.XM) + oracle.kron(oracle.YM, oracle.XP))
        assert close(vec(pair), mixed)

    def test_ghz_y_minus_alice_y_plus_gives_bob_x_plus(self):
        _, pair = collapse(GHZ, 0, Basis.Y, Outcome.MINUS)
        _, bob = collapse(pair, 0, Basis.Y, Outcome.PLUS)
        p_plus, _ = outcome_distribution(bob, 0, Basis.X)
        assert abs(p_plus - 1.0) <= ATOL

    def test_corrected_ghz_y_decompositions(self):
        # Corrected x/y decomposition of the triplet: center x+ pairs
        # with (y+y- + y-y+), center x- with (y+y+ + y-y-).
        for c_out, pair_form in [
            (Outcome.PLUS, oracle.kron(oracle.YP, oracle.YM) + oracle.kron(oracle.YM, oracle.YP)),
            (Outcome.MINUS, oracle.kron(oracle.YP, oracle.YP) + oracle.kron(oracle.YM, oracle.YM)),
        ]:
            _, pair = collapse(GHZ, 0, Basis.X, c_out)
            assert close(vec(pair), oracle.S * pair_form)

    def test_corrected_ghz_mixed_decompositions(self):
        # Center y+ pairs with (x+y- + x-y+) and with (y+x- + y-x+);
        # center y- with (x+y+ + x-y-) and (y+x+ + y-x-).
        for c_out, forms in [
            (Outcome.PLUS, [oracle.kron(oracle.XP, oracle.YM) + oracle.kron(oracle.XM, oracle.YP),
                            oracle.kron(oracle.YP, oracle.XM) + oracle.kron(oracle.YM, oracle.XP)]),
            (Outcome.MINUS, [oracle.kron(oracle.XP, oracle.YP) + oracle.kron(oracle.XM, oracle.YM),
                             oracle.kron(oracle.YP, oracle.XP) + oracle.kron(oracle.YM, oracle.XM)]),
        ]:
            _, pair = collapse(GHZ, 0, Basis.Y, c_out)
            for form in forms:
                assert close(vec(pair), oracle.S * form)

    def test_collapse_single_qubit_returns_empty_marker(self):
        prob, rest = collapse(make_eigenstate(Basis.Z, Outcome.PLUS), 0, Basis.Z, Outcome.PLUS)
        assert prob == pytest.approx(1.0)
        assert rest is None


@st.composite
def random_states(draw):
    n = draw(st.sampled_from([2, 4, 8, 16]))
    re = draw(st.lists(st.floats(-1, 1, allow_nan=False), min_size=n, max_size=n))
    im = draw(st.lists(st.floats(-1, 1, allow_nan=False), min_size=n, max_size=n))
    v = np.array(re) + 1j * np.array(im)
    norm = np.linalg.norm(v)
    if norm < 1e-3:
        v = v + 1.0
        norm = np.linalg.norm(v)
    return StateVector(v / norm)


class TestBornProperties:
    @settings(max_examples=60, deadline=None)
    @given(random_states(), st.sampled_from(list(Basis)))
    def test_completeness(self, state, basis):
        for q in range(state.num_qubits):
            p_plus, p_minus = outcome_distribution(state, q, basis)
            assert abs(p_plus + p_minus - 1.0) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(random_states(), st.sampled_from(list(Basis)))
    def test_collapse_preserves_norm(self, state, basis):
        if state.num_qubits == 1:
            return
        for outcome in Outcome:
            prob, collapsed = collapse(state, 0, basis, outcome)
            if prob > ATOL:
                assert abs(float(np.sum(np.abs(collapsed.amplitudes) ** 2)) - 1.0) <= 1e-12


class TestRegister:
    def test_sequential_measurement_orders_agree_on_distribution(self):
        # Measuring all three triplet qubits in x: outcomes satisfy the
        # even-parity constraint whatever the order.
        for order in (("c", "a", "b"), ("b", "c", "a")):
            reg = Register.from_state(GHZ, ("c", "a", "b"))
            outs = {}
            for i, role in enumerate(order):
                outs[role], reg = reg.measure(role, Basis.X, 0.49 * (i + 1) % 1.0)
            parity = sum(outs[r].bit for r in ("c", "a", "b")) % 2
            assert parity == 0

    def test_add_eigenstate_and_measure(self):
        reg = Register.from_state(GHZ, ("c", "a", "b"))
        _, reg = reg.measure("a", Basis.Y, 0.3)
        reg = reg.add_eigenstate("a", Basis.Y, Outcome.MINUS)
        out, reg = reg.measure("a", Basis.Y, 0.99)
        assert out is Outcome.MINUS
        assert all("a" not in roles for _, roles in reg.factors)

    def test_measure_deterministic_in_draw(self):
        reg = Register.from_state(GHZ, ("c", "a", "b"))
        a = reg.measure("a", Basis.Y, 0.42)
        b = reg.measure("a", Basis.Y, 0.42)
        assert a[0] is b[0]
        (state_a, roles_a), = a[1].factors
        (state_b, roles_b), = b[1].factors
        assert roles_a == roles_b == ("c", "b")
        assert np.array_equal(vec(state_a), vec(state_b))

    def test_draw_equal_to_p_plus_gives_minus(self):
        # The sampler's comparison: MINUS iff draw >= p_plus.
        reg = Register.from_state(GHZ, ("c", "a", "b"))
        p_plus = reg.branches("c", Basis.X)[0][0]
        assert reg.measure("c", Basis.X, p_plus)[0] is Outcome.MINUS
        assert reg.measure("c", Basis.X, np.nextafter(p_plus, 0.0))[0] is Outcome.PLUS

    def test_zero_probability_branch_raises(self):
        # p_minus = 1e-14 is below ATOL: that branch has no register.
        reg = Register.from_state(StateVector(np.array([1.0, 1e-7]) / math.hypot(1.0, 1e-7)), ("a",))
        assert reg.branches("a", Basis.Z)[1][2] is None
        with pytest.raises(AssertionError, match="zero-probability branch"):
            reg.measure("a", Basis.Z, np.nextafter(1.0, 0.0))

    @pytest.mark.parametrize("roles", [("c", "a"), ("c", "a", "b", "e")])
    def test_one_role_per_qubit(self, roles):
        with pytest.raises(ValueError, match="one role per qubit required"):
            Register.from_state(GHZ, roles)

    def test_duplicate_role_rejected(self):
        reg = Register.from_state(GHZ, ("c", "a", "b"))
        u, v = np.array([1, 0], complex), np.array([0, 1], complex)
        with pytest.raises(ValueError, match="^role 'a' already present$"):
            reg.add_eigenstate("a", Basis.X, Outcome.PLUS)
        with pytest.raises(ValueError, match="^role 'a' already present$"):
            Register.from_state(GHZ, ("c", "a", "a"))
        with pytest.raises(ValueError, match="^role 'b' already present$"):
            reg.attach_probe("a", "b", u, v)

    def test_role_no_factor_holds_raises_key_error(self):
        reg = Register.from_state(GHZ, ("c", "a", "b"))
        with pytest.raises(KeyError, match="^'eve'$"):
            reg.branches("eve", Basis.X)
        _, _, measured = reg.branches("a", Basis.Z)[0]
        with pytest.raises(KeyError, match="^'a'$"):
            measured.branches("a", Basis.X)

    def test_branches_weights(self):
        reg = Register.from_state(GHZ, ("c", "a", "b"))
        branches = reg.branches("c", Basis.X)
        assert len(branches) == 2
        assert abs(sum(p for p, _, _ in branches) - 1.0) <= ATOL


class TestProbe:
    def test_zero_coupling_factorizes(self):
        probed = apply_x_probe(GHZ, 1, np.array([1, 0], complex), np.array([1, 0], complex))
        expected = np.kron(oracle.GHZ3.reshape(8, 1), np.array([[1], [0]])).reshape(-1)
        assert close(vec(probed), expected)

    @pytest.mark.parametrize("qubit", [3, -1])
    def test_qubit_out_of_range(self, qubit):
        u = np.array([1, 0], complex)
        with pytest.raises(IndexError, match=f"qubit {qubit} out of range for 3-qubit state"):
            apply_x_probe(GHZ, qubit, u, u)

    def test_full_coupling_records_x_value(self):
        u = np.array([1, 1], complex) / math.sqrt(2)
        v = np.array([1, -1], complex) / math.sqrt(2)
        plus = make_eigenstate(Basis.X, Outcome.PLUS)
        probed = apply_x_probe(plus, 0, u, v)
        # probe must be exactly u when the qubit is x+
        _, probe_state = collapse(probed, 0, Basis.X, Outcome.PLUS)
        assert close(vec(probe_state), u)

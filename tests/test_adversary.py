import math

import numpy as np
import pytest

from tcqkd.adversary import (
    AncillaEntangle,
    CheatingCenterMeasureAll,
    InterceptResend,
    NoAttack,
    Party,
    UnsupportedAttackError,
    ancilla_guess_probability,
    infer_bob_outcome,
    probe_vectors,
)
from tcqkd.protocols import (
    ProtocolId,
    SessionConfig,
    predict_adversary_accuracy,
    predict_detection_rate,
    run_session,
)
from tcqkd.qstate import GHZ, Basis, Outcome, apply_x_probe

import oracle

TOL = 1e-12

# The refusals of a pairing the session's course has no place for, whole.
CHEATING_BEFORE_THE_PARTIES = (
    r"^cheating center is modeled where the center measures before the parties \(GHZ1/GHZ2\)$")
ANCILLA_ON_TRIPLETS = r"^the ancilla attack targets the triplet protocols$"
GHZ1_CHEATING_BASIS = r"^GHZ1 announces results in X; cheating basis must be X$"


class TestProbeAlgebra:
    @pytest.mark.parametrize("coupling", [0.0, 0.25, 0.5, 1.0])
    def test_probe_overlap(self, coupling):
        u, v = probe_vectors(coupling)
        assert abs(np.vdot(u, v).real - (1 - coupling)) <= TOL

    @pytest.mark.parametrize("coupling", [0.0, 0.3, 1.0])
    def test_joint_state_structure(self, coupling):
        # The probed triplet decomposes over x exactly as
        # (1/2) sum of |c a b> terms with probe u on Alice-x+ terms and
        # v on Alice-x- terms.
        u, v = probe_vectors(coupling)
        expected = 0.5 * (
            oracle.kron(oracle.XP, oracle.XP, oracle.XP, u)
            + oracle.kron(oracle.XP, oracle.XM, oracle.XM, v)
            + oracle.kron(oracle.XM, oracle.XP, oracle.XM, u)
            + oracle.kron(oracle.XM, oracle.XM, oracle.XP, v)
        )
        joint = apply_x_probe(GHZ, 1, u, v)
        assert np.max(np.abs(joint.amplitudes - expected)) <= 1e-12

    def test_zero_coupling_factorizes(self):
        joint = apply_x_probe(GHZ, 1, *probe_vectors(0.0))
        expected = np.kron(oracle.GHZ3, np.array([1, 0], complex))
        assert np.max(np.abs(joint.amplitudes - expected)) <= TOL


class TestGuessProbability:
    @pytest.mark.parametrize("coupling", [0.0, 0.05, 0.3, 0.7, 1.0])
    def test_matches_literal_projection(self, coupling):
        assert abs(ancilla_guess_probability(coupling) - oracle.ancilla_guess(coupling)) <= TOL
        assert abs(oracle.ancilla_guess(coupling) - 0.5) <= TOL

    @pytest.mark.parametrize("coupling", [0.3, 1.0])
    def test_branch_probe_states_coincide(self, coupling):
        # Either x result of the center leaves the probe in (u + v)/|u + v|
        # with prior 1/2: the probe holds nothing about the branch.
        u, v = probe_vectors(coupling)
        target = (u + v) / np.linalg.norm(u + v)
        for prior, probe in oracle.eve_pair_projection(coupling):
            assert abs(prior - 0.5) <= TOL
            assert np.max(np.abs(probe - target)) <= 1e-12

    @pytest.mark.parametrize("coupling", [-0.1, 1.5])
    def test_coupling_outside_unit_interval_refused(self, coupling):
        with pytest.raises(ValueError, match=r"coupling must be in \[0, 1\]"):
            ancilla_guess_probability(coupling)


class TestDetectionOracle:
    @pytest.mark.parametrize("protocol", list(ProtocolId))
    def test_intercept_default_pool_rate_quarter(self, protocol):
        rate = predict_detection_rate(protocol, InterceptResend())
        assert abs(rate - 0.25) <= 1e-9

    def test_intercept_on_bob_symmetric(self):
        rate = predict_detection_rate(ProtocolId.GHZ1, InterceptResend(target_party=Party.BOB))
        assert abs(rate - 0.25) <= 1e-9

    def test_intercept_z_pool_on_triplet(self):
        # A z measurement breaks both x and y correlations.
        rate = predict_detection_rate(ProtocolId.GHZ1, InterceptResend(basis_pool=(Basis.Z,)))
        assert abs(rate - 0.5) <= 1e-9

    def test_cheating_center_x_rate(self):
        rate = predict_detection_rate(ProtocolId.GHZ1, CheatingCenterMeasureAll(Basis.X))
        assert abs(rate - 0.25) <= 1e-9

    def test_none_rate_zero(self):
        assert predict_detection_rate(ProtocolId.BELL5, NoAttack()) == 0.0

    def test_ancilla_rate_endpoints_and_monotone(self):
        rates = [
            predict_detection_rate(ProtocolId.GHZ1, AncillaEntangle(c))
            for c in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert abs(rates[0]) <= TOL
        assert abs(rates[-1] - 0.25) <= 1e-9
        assert all(b >= a - TOL for a, b in zip(rates, rates[1:]))

    def test_unsupported_pairs_raise(self):
        for oracle_of in (predict_detection_rate, predict_adversary_accuracy):
            with pytest.raises(UnsupportedAttackError, match=CHEATING_BEFORE_THE_PARTIES):
                oracle_of(ProtocolId.BELL4, CheatingCenterMeasureAll(Basis.X))
            with pytest.raises(UnsupportedAttackError, match=CHEATING_BEFORE_THE_PARTIES):
                oracle_of(ProtocolId.GHZ3, CheatingCenterMeasureAll(Basis.X))
            with pytest.raises(UnsupportedAttackError, match=ANCILLA_ON_TRIPLETS):
                oracle_of(ProtocolId.BELL5, AncillaEntangle(0.5))
            with pytest.raises(UnsupportedAttackError, match=GHZ1_CHEATING_BASIS):
                oracle_of(ProtocolId.GHZ1, CheatingCenterMeasureAll(Basis.Y))


class TestAccuracyOracle:
    def test_intercept_accuracy_three_quarters(self):
        acc = predict_adversary_accuracy(ProtocolId.GHZ1, InterceptResend())
        assert abs(acc - 0.75) <= 1e-9

    def test_cheating_center_accuracy(self):
        acc = predict_adversary_accuracy(ProtocolId.GHZ1, CheatingCenterMeasureAll(Basis.X))
        assert abs(acc - 0.75) <= 1e-9

    def test_accuracy_strictly_below_one(self):
        for protocol in ProtocolId:
            acc = predict_adversary_accuracy(protocol, InterceptResend())
            assert acc < 1.0

    def test_no_attack_raises(self):
        with pytest.raises(UnsupportedAttackError):
            predict_adversary_accuracy(ProtocolId.GHZ1, NoAttack())


class TestNoAttack:
    def test_no_attack_transcript_identical_to_baseline(self):
        a = run_session(SessionConfig(ProtocolId.BELL4, 500, rng_seed=44))
        b = run_session(SessionConfig(ProtocolId.BELL4, 500, rng_seed=44, attack=NoAttack()))
        from tcqkd.protocols import transcript_to_json

        assert transcript_to_json(a) == transcript_to_json(b)


class TestInference:
    def test_target_bob_same_basis_exact(self):
        assert infer_bob_outcome((Basis.X, Outcome.PLUS), Basis.X, Outcome.MINUS,
                                 Party.BOB, Basis.X) is Outcome.MINUS

    def test_target_bob_other_basis_unknown(self):
        assert infer_bob_outcome((Basis.X, Outcome.PLUS), Basis.X, Outcome.MINUS,
                                 Party.BOB, Basis.Y) is None

    def test_target_alice_uses_tables(self):
        # center x+, Eve-as-Alice x+, Bob in x -> x+
        assert infer_bob_outcome((Basis.X, Outcome.PLUS), Basis.X, Outcome.PLUS,
                                 Party.ALICE, Basis.X) is Outcome.PLUS
        assert infer_bob_outcome((Basis.X, Outcome.PLUS), Basis.X, Outcome.PLUS,
                                 Party.ALICE, Basis.Y) is None


def binomial_3sigma(p, n):
    return 3 * math.sqrt(p * (1 - p) / n)


class TestSimulationMatchesOracle:
    def test_intercept_ghz2(self):
        cfg = SessionConfig(ProtocolId.GHZ2, 8000, check_fraction=0.2,
                            qber_abort_threshold=0.05, rng_seed=31,
                            attack=InterceptResend())
        tr = run_session(cfg)
        predicted = tr.adversary["predicted_detection_rate"]
        observed = tr.check_report.qber
        assert abs(observed - predicted) <= binomial_3sigma(predicted, tr.check_report.checked_count)
        assert tr.check_report.aborted

    def test_no_key_position_leaves_accuracy_unobserved(self):
        """Bob's leg at loss 1 loses every position, so no position is
        key material and her accuracy has nothing to count."""
        tr = run_session(SessionConfig(ProtocolId.GHZ1, 40, loss_probability=(0.0, 1.0),
                                       attack=InterceptResend()))
        assert tr.kept_count == 0
        assert tr.adversary["observed_accuracy"] is None

    def test_intercept_bell5_accuracy(self):
        # Her hits on the key positions, pooled over ten fixed seeds.
        hits = total = 0
        for seed in range(32, 42):
            cfg = SessionConfig(ProtocolId.BELL5, 8000, check_fraction=0.2,
                                qber_abort_threshold=0.05, rng_seed=seed,
                                attack=InterceptResend())
            tr = run_session(cfg)
            adv = tr.adversary
            n = sum(1 for p in tr.positions if p.kept and not p.used_for_check)
            hits += round(adv["observed_accuracy"] * n)
            total += n
        predicted = adv["predicted_accuracy"]
        assert abs(hits / total - predicted) <= binomial_3sigma(predicted, total)
        assert hits < total

    def test_ancilla_zero_coupling_invisible(self):
        base = SessionConfig(ProtocolId.GHZ1, 3000, rng_seed=15)
        attacked = SessionConfig(ProtocolId.GHZ1, 3000, rng_seed=15,
                                 attack=AncillaEntangle(0.0))
        t0 = run_session(base)
        t1 = run_session(attacked)
        assert t0.alice_raw_key == t1.alice_raw_key
        assert t0.bob_final_key == t1.bob_final_key
        assert t0.check_report.error_count == t1.check_report.error_count == 0
        for p0, p1 in zip(t0.positions, t1.positions):
            assert (p0.lost, p0.center_announcement, p0.alice_basis, p0.alice_outcome,
                    p0.bob_basis, p0.bob_outcome, p0.kept, p0.used_for_check) == \
                   (p1.lost, p1.center_announcement, p1.alice_basis, p1.alice_outcome,
                    p1.bob_basis, p1.bob_outcome, p1.kept, p1.used_for_check)

    def test_cheating_center_yy_error_rate(self):
        cfg = SessionConfig(ProtocolId.GHZ1, 10000, check_fraction=0.3,
                            qber_abort_threshold=0.05, rng_seed=21,
                            attack=CheatingCenterMeasureAll(Basis.X))
        tr = run_session(cfg)
        from tcqkd.protocols import consistency_map

        yy_checked = yy_errors = xx_errors = xx_checked = 0
        for p in tr.positions:
            if not p.used_for_check:
                continue
            expected = consistency_map(ProtocolId.GHZ1, p.center_announcement,
                                       p.alice_basis, p.alice_outcome, p.bob_basis)
            err = p.bob_outcome is not expected
            if p.alice_basis is Basis.Y and p.bob_basis is Basis.Y:
                yy_checked += 1
                yy_errors += err
            else:
                xx_checked += 1
                xx_errors += err
        assert xx_errors == 0
        assert yy_checked > 100
        assert abs(yy_errors / yy_checked - 0.5) <= binomial_3sigma(0.5, yy_checked)


SUPPORTED_PAIRS = [
    *[(p, InterceptResend()) for p in ProtocolId],
    (ProtocolId.GHZ1, CheatingCenterMeasureAll(Basis.X)),
    (ProtocolId.GHZ2, CheatingCenterMeasureAll(Basis.X)),
    (ProtocolId.GHZ2, CheatingCenterMeasureAll(Basis.Y)),
    (ProtocolId.GHZ1, AncillaEntangle(1.0)),
    (ProtocolId.GHZ2, AncillaEntangle(0.75)),
    (ProtocolId.GHZ3, AncillaEntangle(1.0)),
]


class TestFullSupportMatrix:
    @pytest.mark.parametrize("protocol,attack", SUPPORTED_PAIRS,
                             ids=[f"{p.value}-{a.kind}" for p, a in SUPPORTED_PAIRS])
    def test_simulation_within_3sigma_of_oracle(self, protocol, attack):
        predicted_rate = predict_detection_rate(protocol, attack)
        predicted_acc = predict_adversary_accuracy(protocol, attack)
        cfg = SessionConfig(protocol, 6000, check_fraction=0.2,
                            qber_abort_threshold=0.05, rng_seed=55, attack=attack)
        tr = run_session(cfg)
        checked = tr.check_report.checked_count
        assert abs(tr.check_report.qber - predicted_rate) <= \
            binomial_3sigma(max(predicted_rate, 1e-6), checked) + 1e-9
        if predicted_rate > 0:
            assert tr.check_report.aborted
        kept_unchecked = sum(1 for p in tr.positions if p.kept and not p.used_for_check)
        observed_acc = tr.adversary["observed_accuracy"]
        assert observed_acc < 1.0
        assert abs(observed_acc - predicted_acc) <= binomial_3sigma(predicted_acc, kept_unchecked)


class TestAttackModelValidation:
    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            InterceptResend(basis_pool=())

    def test_coupling_range(self):
        with pytest.raises(ValueError):
            AncillaEntangle(coupling=1.5)

    def test_config_rejects_unsupported_combos(self):
        with pytest.raises(UnsupportedAttackError, match=CHEATING_BEFORE_THE_PARTIES):
            SessionConfig(ProtocolId.GHZ3, 100, rng_seed=1,
                          attack=CheatingCenterMeasureAll(Basis.X))
        with pytest.raises(UnsupportedAttackError, match=ANCILLA_ON_TRIPLETS):
            SessionConfig(ProtocolId.BELL4, 100, rng_seed=1, attack=AncillaEntangle(0.5))
        with pytest.raises(UnsupportedAttackError, match=GHZ1_CHEATING_BASIS):
            SessionConfig(ProtocolId.GHZ1, 100, rng_seed=1,
                          attack=CheatingCenterMeasureAll(Basis.Y))

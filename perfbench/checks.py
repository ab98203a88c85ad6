"""Output checks run on every session of every pass.

A session fails when it raised, when it reports success while Alice's
and Bob's final keys differ, or when it breaks one of these:

* measured efficiency is at most the protocol's bound;
* an attack-free session has no check errors and a final key exactly
  ``postproc.final_key_length(...)`` long on its own numbers;
* an attacked session records the exact oracle's detection rate, and
  the pooled check error count of the sessions sharing its protocol
  and attack lies within ``BINOMIAL_SIGMAS`` binomial standard
  deviations of ``predict_detection_rate``.

An eavesdrop abort is an expected outcome, not a failure.
"""

from __future__ import annotations

import math
from collections import defaultdict

from tcqkd import NoAttack, postproc, predict_detection_rate

BINOMIAL_SIGMAS = 5.0


class Checker:
    """Holds the oracle values already computed, one per protocol and attack."""

    def __init__(self):
        self._rates = {}

    def detection_rate(self, protocol, attack) -> float:
        key = (protocol, attack)
        if key not in self._rates:
            self._rates[key] = predict_detection_rate(protocol, attack)
        return self._rates[key]

    def failures(self, transcripts: list, errors: list) -> list:
        """One failure reason per session, None where the session passed."""
        reasons = list(errors)
        groups = defaultdict(list)
        for i, t in enumerate(transcripts):
            if t is None:
                reasons[i] = reasons[i] or "no transcript"
                continue
            reasons[i] = reasons[i] or self._session_failure(t)
            if not isinstance(t.config.attack, NoAttack):
                groups[(t.config.protocol, t.config.attack)].append(i)
        for (protocol, attack), members in groups.items():
            reason = self._pooled_failure(protocol, attack, [transcripts[i] for i in members])
            for i in members:
                reasons[i] = reasons[i] or reason
        return reasons

    def _session_failure(self, t) -> str | None:
        if t.efficiency_measured > t.efficiency_bound:
            return f"efficiency {t.efficiency_measured} above bound {t.efficiency_bound}"
        if not t.check_report.aborted and t.alice_final_key != t.bob_final_key:
            return "success reported with differing final keys"
        if isinstance(t.config.attack, NoAttack):
            if t.check_report.error_count:
                return f"{t.check_report.error_count} check errors without an attack"
            s = t.postproc_summary
            expected = (postproc.final_key_length(len(t.alice_raw_key), s.qber_used,
                                                  s.reconcile_leaked, s.epsilon)
                        if t.alice_raw_key else 0)
            if len(t.alice_final_key) != expected:
                return f"final key length {len(t.alice_final_key)}, expected {expected}"
            return None
        predicted = self.detection_rate(t.config.protocol, t.config.attack)
        if t.adversary["predicted_detection_rate"] != predicted:
            return (f"recorded detection rate {t.adversary['predicted_detection_rate']}"
                    f" differs from the oracle's {predicted}")
        return None

    def _pooled_failure(self, protocol, attack, transcripts: list) -> str | None:
        checked = sum(t.check_report.checked_count for t in transcripts)
        errors = sum(t.check_report.error_count for t in transcripts)
        p = self.detection_rate(protocol, attack)
        # The +1 keeps a rate of exactly 0 or 1 from demanding an exact count.
        allowed = BINOMIAL_SIGMAS * math.sqrt(checked * p * (1 - p)) + 1
        if abs(errors - checked * p) > allowed:
            return (f"{errors} check errors in {checked} is outside {BINOMIAL_SIGMAS} sigma"
                    f" of the predicted rate {p}")
        return None

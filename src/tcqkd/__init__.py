"""Deterministic simulator for trusted-center quantum key distribution.

Exact statevector simulation of the GHZ-triplet and entangled-pair
protocols, their adversary models with closed-form detection oracles,
classical key distillation, and a small multi-user network layer.
"""

from .adversary import (
    AncillaEntangle,
    AttackModel,
    CheatingCenterMeasureAll,
    InterceptResend,
    NoAttack,
    Party,
    UnsupportedAttackError,
    ancilla_guess_probability,
)
from .netsim import (
    ChannelModel,
    NetworkScenario,
    SessionSpec,
    run_network_scenario,
)
from .postproc import final_key_length, privacy_amplify, reconcile
from .protocols import (
    PositionRecord,
    ProtocolId,
    SessionConfig,
    SessionTranscript,
    TIME_RESERVED_EPR_BASELINE,
    center_basis_rule_p3,
    consistency_map,
    efficiency_bound,
    keep_rule,
    predict_adversary_accuracy,
    predict_detection_rate,
    run_session,
    transcript_from_json,
    transcript_to_json,
)
from .qstate import (
    Basis,
    CorrelationTable,
    GHZ,
    Outcome,
    StateVector,
    TableScenario,
    TwoQubitLabel,
    derive_correlation_table,
    inner_product,
    make_cat,
    make_eigenstate,
    make_two_qubit,
    outcome_distribution,
    table_to_csv,
    table_to_text,
)

__version__ = "0.1.0"

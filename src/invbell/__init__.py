"""Simulator and analysis toolkit for the four-qubit basis-choice experiment.

Build the entangled pair plus choice-register state, query its outcome
distribution, mechanize the certainty-prediction chain, and run classical
no-signaling / local-polytope / CHSH analyses on the inverted scenario
where outcomes act as inputs and basis choices as outputs.
"""

from .errors import (
    BadWeights,
    DimensionMismatch,
    EmptyKeep,
    IndexClash,
    InvbellError,
    MissingSupport,
    ZeroConditioning,
)
from .lhv import (
    ConditionalTable,
    DeterministicStrategy,
    PolytopeReport,
    ResponseFunction,
    SignalingReport,
    conditional_table,
    enumerate_strategies,
    local_polytope_check,
    no_signaling_check,
    pr_box_table,
    strategy_table,
)
from .protocol import (
    OUTCOMES,
    Distribution,
    OutcomeQuadruple,
    Scenario,
    bell_state,
    build_final_density,
    outcome_distribution,
)
from .qcore import (
    DensityMatrix,
    StateVector,
    UnitaryMatrix,
    apply_unitary,
    controlled_unitary,
    density_from_state,
    dephase,
    hadamard,
    identity,
    kron,
    measurement_probs,
    mix,
    partial_trace,
)
from .reality import (
    CertaintyPrediction,
    HardyReport,
    certainty_predictions,
    hardy_chain_check,
    response_model_refutation,
)
from .stats import (
    ChshSettings,
    EventPredicate,
    SampleReport,
    chsh_value,
    conditional,
    correlator,
    marginal,
    prob,
    sample,
)

__version__ = "0.1.0"

"""Measurement-set design and evaluation for two-qubit tomography with noisy entangling gates."""

from .core import (
    gram_volume,
    haar_random_unitaries,
    random_density,
    state_fidelity,
    traceless_part,
)
from .gates import (
    QuorumParams,
    entangling_times,
    measurement_layers,
    measurement_unitary,
    nine_pauli_bases,
    single_qubit_gate,
    standard_mub_params,
)
from .noise import (
    NoiseModel,
    apply_depolarizing,
    apply_ou,
    average_gate_fidelity,
    depolarizing_q,
    ideal_effects,
    ou_gammas,
    povm_stack,
)
from .optimize import (
    OptimizationResult,
    diverse_starts,
    optimize_quorum,
    simulated_annealing,
)
from .quality import (
    QualityReport,
    analytic_alpha_max,
    analytic_beta_max,
    estimate_log_coefficient,
    geometric_quality,
    neg_log_qn,
    quality_report,
    single_qubit_optimal_angle,
    single_qubit_quality,
)
from .tomography import (
    ExperimentReport,
    Scheme,
    ml_reconstruct,
    run_experiment,
    sample_measurement,
)

__version__ = "0.1.0"

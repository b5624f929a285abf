"""Qutrit simulation toolkit.

Majorana-sphere representation of a three-level system, SU(3)/SO(3)
transformation algebra, canonical-state geometry and magnetization,
ternary quantum gates, an ideal spin-1 NMR pulse simulator, a
linear-inversion state tomography protocol, and point-pair trajectories
under a generator.
"""

from .core import (
    ATOL,
    DEGENERACY_EPS,
    DensityMatrix3,
    Ket3,
    Unitary3,
    ZeroVectorError,
    dm_from_ket,
    fidelity,
    normalize,
    phase_invariant_distance,
    random_density,
    random_ket,
    random_unitary,
)
from .majorana import (
    DegeneratePairError,
    MajoranaPoly,
    SouthPoleError,
    SpherePoint,
    SpherePointPair,
    great_circle_distance,
    inverse_stereographic,
    pair_distance,
    points_to_state,
    rotate_pair,
    state_to_points,
    stereographic,
)
from .algebra import (
    GELL_MANN,
    GENERATORS,
    JDEF,
    ROTATION_SIGN,
    SIGMA,
    GeneratorSet,
    TransitionOp,
    majorana_rotation_check,
    r_so3,
    transition_op,
    transition_unitary,
    u_lambda,
    u_sigma,
)
from .geometry import (
    CanonicalForm,
    DecompositionAngles,
    MagnetizationReport,
    canonical_decompose,
    canonical_state,
    magnetization,
)
from .gates import (
    GATE_NAMES,
    chrestenson,
    gate_by_name,
    phase_gate,
    predict_phase_difference,
    swap,
)
from .nmrsim import (
    Crush,
    CrushInSequenceError,
    HamiltonianParams,
    InvalidTransitionError,
    NonselectivePulse,
    PulseSequence,
    SpectrumLine,
    ThermalParams,
    TransitionPulse,
    ZCascade,
    apply_event,
    chrestenson_sequence,
    double_quantum_sequence,
    hamiltonian,
    lambda_z_sequence,
    phase_difference_pipeline,
    phase_shift_sequence,
    phase_table,
    prepare_pseudopure,
    pseudopure_sequence,
    run_sequence,
    sequence_from_text,
    sequence_to_text,
    sequence_unitary,
    spectrum_lines,
    swap_sequence,
    thermal_state,
    transition_frequencies,
    verify_sequence,
)
from .tomography import (
    InconsistentReadoutsError,
    TomoCoefficients,
    TomoExperimentResult,
    reconstruct,
    run_tomo_experiments,
    tomo_fidelity,
    tomo_report,
)

__version__ = "0.1.0"

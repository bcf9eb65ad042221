"""Numerical verification of quantum entropy inequalities.

Relative entropy H(P, Q) = Tr P (ln P - ln Q) (natural log), computed by
three independent routes, plus randomized margin suites for joint
convexity, strong subadditivity, data processing, operator Schwarz
inequalities, and Holevo bounds.
"""

from .channels import (
    AncillaRep,
    KrausMap,
    Povm,
    adjoint_channel,
    ancilla_representation,
    apply_ancilla,
    apply_channel,
    apply_linear,
    dephase,
    dephase_via_z,
    identity_channel,
    povm_channel,
    purify,
    tensor_channel,
    trace_out_channel,
)
from .entropy import (
    bures_distance,
    conditional_entropy,
    kernel_k,
    relative_entropy,
    relative_entropy_integral,
    relative_entropy_integral_steps,
    relative_entropy_spectral_kernel,
    scalar_log_identity,
    von_neumann_entropy,
)
from .holevo import (
    Ensemble,
    check_holevo_bound,
    check_partial_measurement_chain,
    chi,
    chi_via_qc,
    flagged_marginals,
    flagged_state,
    yuen_ozawa_gap,
)
from .inequalities import (
    BlockContractionReport,
    CheckReport,
    ConvexityInstance,
    Failure,
    JointConvexityMargins,
    SsaMargins,
    TrialError,
    check_adjoint_contraction,
    check_block_contraction,
    check_cp_schwarz,
    check_joint_convexity,
    check_monotonicity,
    check_operator_schwarz,
    check_pure_state_lemmas,
    check_schwarz_quadratic,
    check_ssa,
)
from .matcore import (
    KernelObstruction,
    NonConvergence,
    Spectrum,
    as_density,
    as_hermitian,
    as_matrix,
    as_psd,
    matrix_from_json,
    matrix_function,
    matrix_to_json,
    partial_trace,
    partial_trace_pure,
    read_matrix,
    tensor,
    write_matrix,
)
from .randgen import (
    RngState,
    random_cptp,
    random_density,
    random_matrix,
    random_povm,
    random_simplex,
    random_unit_vector,
    random_unitary,
)
from .superop import SuperOpSpec, solve_resolvent, superop_matrix
from .suites import run_suite, suite_names

__version__ = "0.1.0"

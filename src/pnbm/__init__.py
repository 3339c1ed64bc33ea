"""Partial non-demolition Bell measurement, the teleportation protocol it
enables, its information-disturbance analysis, and the continuous-variable
analogue: exact desk-scale simulation with every closed form cross-checked
against direct computation."""

from .qsim import (
    DensityMatrix,
    GateOp,
    PureState,
    apply_unitary,
    bell_state,
    fidelity,
    haar_random_pure,
    measure_computational,
    partial_trace,
    tensor,
)
from .ancilla import (
    AncillaParams,
    params_from_alpha,
    prep_matrices,
    run_prep_circuit,
    sigma_state,
)
from .measurement import (
    KrausSet,
    apply_pnbm_kraus,
    completeness_residual,
    correction_unitaries,
    kraus_set,
    pnbm_network,
)
from .teleport import (
    cloning_residual,
    closed_form_fidelities,
    pct_bound_curve,
    pqt_bound_curve,
    run_pqt,
)
from .analysis import (
    design_mean_fidelities,
    mean_fidelities_closed,
    mean_fidelities_from_kraus,
    monte_carlo_mean_fidelities,
    tradeoff_residual,
)
from .cv import (
    CvConfig,
    build_cv_protocol,
    covariance_conditioning_check,
    cv_fidelities,
    qnd_gate,
)

__version__ = "0.1.0"

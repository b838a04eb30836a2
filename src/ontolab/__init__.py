"""ontolab: sequential qubit measurements, temporal inequalities, and the
hidden-variable models that try to keep up with them.

The exact quantum oracle, the joint of two sequential measurements on the
maximally mixed state, lives in :mod:`ontolab.qubit`; the four-time
inequality machinery in :mod:`ontolab.leggett_garg`; the ontological models
and their kernels in :mod:`ontolab.models`; histogram/entropy tooling in
:mod:`ontolab.sphere`; and the erasure and no-flow diagnostics and the
branching pass (joint statistics and no-erasure verdict) in
:mod:`ontolab.information`.
"""

__version__ = "0.1.0"

from .errors import (
    ContractMismatchError,
    InvalidArgumentError,
    NumericalFailureError,
)
from .information import (
    BranchingNoErasureReport,
    ErasureReport,
    NoFlowReport,
    branching_no_erasure_check,
    erasure_report,
    noflow_test,
)
from .leggett_garg import (
    CLASSICAL_BOUND,
    TSIRELSON_BOUND,
    CorrelationMatrix,
    LGScenario,
    empirical_correlations,
    lg_stderr,
    lg_value,
    max_violation_over_34,
    quantum_correlations,
)
from .models import (
    BeltramettiBugajski,
    BranchingModel,
    OntologicalModel,
    Telegraph,
    make_model,
)
from .qubit import (
    MAXIMALLY_MIXED,
    heisenberg_direction,
    joint_expectation,
    sequential_joint,
)

__all__ = [
    "BeltramettiBugajski",
    "BranchingModel",
    "BranchingNoErasureReport",
    "CLASSICAL_BOUND",
    "ContractMismatchError",
    "CorrelationMatrix",
    "ErasureReport",
    "InvalidArgumentError",
    "LGScenario",
    "MAXIMALLY_MIXED",
    "NoFlowReport",
    "NumericalFailureError",
    "OntologicalModel",
    "TSIRELSON_BOUND",
    "Telegraph",
    "branching_no_erasure_check",
    "empirical_correlations",
    "erasure_report",
    "heisenberg_direction",
    "joint_expectation",
    "lg_stderr",
    "lg_value",
    "make_model",
    "max_violation_over_34",
    "noflow_test",
    "quantum_correlations",
    "sequential_joint",
]

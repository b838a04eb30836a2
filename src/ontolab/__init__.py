"""ontolab: sequential qubit measurements, temporal inequalities, and the
hidden-variable models that try to keep up with them.

The exact quantum oracle lives in :mod:`ontolab.qubit`; the four-time
inequality machinery in :mod:`ontolab.leggett_garg`; the ontological models
in :mod:`ontolab.models`; histogram/entropy tooling in :mod:`ontolab.sphere`;
and the erasure / no-flow / invariance diagnostics in
:mod:`ontolab.information`.
"""

__version__ = "0.1.0"

from .errors import (
    ContractMismatchError,
    InvalidArgumentError,
    InvalidStateError,
    NumericalFailureError,
    UndefinedConditionalStateError,
)
from .information import (
    BranchingNoErasureReport,
    ErasureReport,
    InvarianceReport,
    NoFlowReport,
    branching_no_erasure_check,
    erasure_report,
    invariance_test,
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
    joint_statistics,
    make_model,
)
from .qubit import (
    MAXIMALLY_MIXED,
    bloch_to_density,
    density_to_bloch,
    dephase,
    evolve,
    heisenberg_direction,
    joint_expectation,
    joint_marginals,
    measure,
    sequential_joint,
    unitary,
    von_neumann_entropy,
)
from .sphere import SphereHistogram, sample_uniform_sphere, tv_distance

__all__ = [
    "BeltramettiBugajski",
    "BranchingModel",
    "BranchingNoErasureReport",
    "CLASSICAL_BOUND",
    "ContractMismatchError",
    "CorrelationMatrix",
    "ErasureReport",
    "InvalidArgumentError",
    "InvalidStateError",
    "InvarianceReport",
    "LGScenario",
    "MAXIMALLY_MIXED",
    "NoFlowReport",
    "NumericalFailureError",
    "OntologicalModel",
    "SphereHistogram",
    "TSIRELSON_BOUND",
    "Telegraph",
    "UndefinedConditionalStateError",
    "bloch_to_density",
    "branching_no_erasure_check",
    "density_to_bloch",
    "dephase",
    "empirical_correlations",
    "erasure_report",
    "evolve",
    "heisenberg_direction",
    "invariance_test",
    "joint_expectation",
    "joint_marginals",
    "joint_statistics",
    "lg_stderr",
    "lg_value",
    "make_model",
    "max_violation_over_34",
    "measure",
    "noflow_test",
    "quantum_correlations",
    "sample_uniform_sphere",
    "sequential_joint",
    "tv_distance",
    "unitary",
    "von_neumann_entropy",
]

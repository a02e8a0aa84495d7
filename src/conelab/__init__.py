"""Numerical verification laboratory for weighted space-time energy
estimates on the exterior of the light cone.

The package checks, at machine precision where possible, the divergence
identity behind a family of weighted estimates for wave operators, the
integral chains (linear split and nonlinear) that follow from it, the
coarea/surface-measure bookkeeping on the double null foliation, the decay
of boundary terms along foliation limits, and a compactly-supported-potential
construction showing the decay hypotheses are sharp.  A decision pipeline
combines the pieces into a uniqueness verdict for claimed solutions.
"""

__version__ = "0.1.0"

import os as _os
import sys as _sys

# numpy's OpenBLAS starts a worker thread per extra CPU when numpy loads, and
# that worker busy-waits while the process runs; conelab's matrices are tiny,
# so one thread is the default unless the host chose a count or loaded numpy
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in _sys.modules and not any(v in _os.environ for v in _THREAD_VARS):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .errors import (
    ConelabError,
    DomainError,
    DomainTooSmall,
    GridTooCoarse,
    InsufficientSequence,
    InvalidCutoffs,
    InvalidInput,
    InvalidPotential,
    InvalidWeightParams,
    MissingDerivative,
    ModeNotSupported,
    NotInwardDirected,
    RangeMismatch,
    RegionOutOfGrid,
    UnstableStep,
)
from .geometry import AdmissibleRegion
from .weights import (
    Potential,
    PowerLog,
    Reparametrization,
    SplitWeight,
    SplitWeightParams,
    decay_envelope,
    gamma_v,
)
from .fields import (
    AnalyticField,
    GridSpec,
    NodeRows,
    ScalarField,
    exact_spherical_wave,
    field_to_csv,
    from_expr,
    static_multipole,
)
from .currents import (
    CurrentField,
    PowerU,
    ZeroU,
    bulk_b,
    current_general,
    current_split,
    current_to_csv,
    divergence_fd,
)
from .quadrature import (
    BoundarySum,
    boundary_sum,
    bulk_integral,
    cone_integral,
    face_flux,
    hyperboloid_integral,
    inverted_hyperboloid_integral,
)
from .verifier import (
    CheckRecord,
    boundary_limit_experiment,
    carleman_nl_check,
    carleman_split_check,
    identity_convergence,
    identity_residual,
    pointwise_inequality,
    split_cancellation,
    uniqueness_pipeline,
)

# the leapfrog module loads with the first evolution or counterexample, not
# with the package: these names of its __all__ resolve on first use (PEP 562)
_SOLVER_NAMES = ("CauchyData", "CounterexampleBundle", "EvolutionResult",
                 "counterexample_build", "solve", "spherical_wave_data")


def __getattr__(name):
    if name not in _SOLVER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import solver

    return getattr(solver, name)

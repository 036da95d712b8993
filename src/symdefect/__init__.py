"""Self-adjoint time integrators with defect-based local error estimation.

The package ships implicit midpoint and real-coefficient splitting steppers,
exponential midpoint, commutator-free and classical 4th-order Magnus steppers
(tableaus of one exponential stage loop), classical and symmetrized defect
evaluators for each, the order-(p+2) corrected scheme, and an adaptive
step-size controller, plus a benchmark CLI reproducing convergence tables on
a cubic Schroedinger equation and a Rosen-Zener model.
"""

from .control import (
    AdaptiveConfig,
    Method,
    StepOutput,
    StepRecord,
    adaptive_integrate,
    estimate_and_correct,
    local_error_integral_oracle,
    make_method,
    reference_solve,
)
from .defects import (
    DefectOutput,
    cfm_defect,
    imr_defect,
    splitting_defect_semilinear,
)
from .errors import ConvergenceFailure, StepFailure
from .problems import CubicNLS, LinearFamily, RosenZener, ToySplit, make_problem, soliton_value
from .schemes import (
    CF4,
    EMB43AKS,
    EXPMID_AS_CFM,
    MAGNUS4,
    STRANG,
    CFMScheme,
    SplittingScheme,
    step_cfm,
    step_exp_midpoint,
    step_implicit_midpoint,
    step_magnus4,
    step_splitting,
)

__version__ = "0.1.0"

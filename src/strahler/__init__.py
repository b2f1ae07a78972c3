"""Horton-Strahler branch statistics of the uniform random binary-tree model.

Exact branch-count expectations via the magnitude recursion, exhaustive and
Monte Carlo cross-checks, and two-term asymptotic expansions of generalized
bifurcation ratios.
"""

from .asymptotics import (
    AsymptoticCoeffs,
    ExpansionError,
    OrderCoeffs,
    coeff_recursion,
    convergence_report,
    expectation_asymptotic,
    fit_initial_coeffs,
    laurent_at_infinity,
    ratio_asymptotic,
    variance_pipeline_report,
)
from .combinatorics import catalan, multiplicity, order2_weights
from .expectations import (
    DegenerateRatioError,
    ExpectationEngine,
    FloatEstimate,
    LimitExceededError,
)
from .observables import (
    NonzeroOverZeroError,
    Observable,
    ObservableSyntaxError,
    parse,
)
from .sampling import (
    MonteCarloResult,
    ProfileEvaluationError,
    SampleConfig,
    monte_carlo,
    sample_uniform,
)
from .transform import phi, preimages, shift_check
from .trees import (
    LEAF,
    BranchProfile,
    EnumerationLimitError,
    OrderedTree,
    Tree,
    TreeFormatError,
    branch_counts,
    decode,
    encode,
    enumerate_trees,
    magnitude,
    root_order,
    strahler_orders,
    unrank_tree,
)

__version__ = "0.1.0"

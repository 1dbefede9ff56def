"""Bootstrap percolation on Galton-Watson trees.

Exact critical probabilities via maximization of the fort-recursion kernel
mixture, analytic lower/upper bounds, and reproducible Monte Carlo
estimation of root-survival probabilities on sampled trees.
"""

from .offspring import (
    DistributionSpec,
    OffspringDistribution,
    PreconditionError,
    SpecError,
    harmonic_number,
    make_distribution,
    parse_spec,
    prune_eta,
)
from .kernels import G, G_minus_1, GEvalContext, MaxResult, g, h, make_context, max_G
from .critical import (
    CriticalResult,
    QLimitResult,
    QTrace,
    pc_closed_form,
    pc_exact,
    pc_regular_asymptotic,
    q_iterate,
    q_limit,
)
from .bounds import (
    BoundEntry,
    BoundsReport,
    bounds_report,
    lb_alpha_moment,
    lb_branching_exact,
    lb_branching_simplified,
    lb_fort,
    lb_second_moment,
    sandwich_violations,
    ub_fort,
    ub_pruned,
    ub_regular_rd,
)
from .simulate import (
    SampledTree,
    SimEstimate,
    estimate_qn,
    root_fort_status,
    run_bootstrap,
    sample_marks,
    sample_tree,
)
from .layered import (
    LayeredTreeSpec,
    build_layered_tree,
    level_growth,
    level_sizes,
    root_infection_curve,
    verify_no_fixed_point,
)

__version__ = "0.1.0"

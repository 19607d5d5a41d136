"""Nonasymptotic confidence intervals for average treatment effects.

Public surface: randomization designs (:mod:`tightci.design`), Horvitz-
Thompson estimation (:mod:`tightci.estimator`), interval constructions
(:mod:`tightci.intervals`), data-generating processes (:mod:`tightci.dgp`),
the deterministic experiment harness (:mod:`tightci.harness`), and the
command-line front end (:mod:`tightci.cli`).
"""

__version__ = "0.1.0"

from .design import (  # noqa: E402,F401
    Assignment,
    DesignError,
    EnumerationBudgetError,
    LayoutInfeasibleError,
    MbcrLayout,
    compute_layout,
    draw_bernoulli,
    draw_mbcr,
    enumerate_mbcr_distribution,
)
from .estimator import (  # noqa: E402,F401
    EstimatorError,
    ObservedData,
    PotentialTable,
    groupwise_sums,
    ht_estimate,
)
from .intervals import (  # noqa: E402,F401
    Interval,
    IntervalError,
    closed_ci,
    clt_ci,
    gamma_b,
    gamma_e,
    reevaluate,
    studentized_ci,
)
from .dgp import DgpError, DgpSpec, sample_population, true_ate_iid  # noqa: E402,F401
from .harness import (  # noqa: E402,F401
    ConfigError,
    ExperimentConfig,
    Report,
    load_config,
    parse_config,
    run_equivalence,
    run_experiment,
    run_monte_carlo,
    run_width_scaling,
    write_outputs,
)

"""Step-reinforced random walks on groups.

Sampling (exact-law and vectorized), cluster forests, return-probability
polynomials, exact small-n oracles, evolving-set machinery, and the
Monte Carlo estimators built on top of them.  ``srrw.cli`` exposes the
same functionality as a command line tool.
"""

from .rng import stream, as_generator
from .groups import (
    Group,
    CycleZL,
    IntegerLatticeZd,
    EuclideanRd,
    RegularTreeFree,
    LamplighterZ,
    S3xZ,
    StepDistribution,
    group_from_literal,
    is_class_function,
    bfs_ball,
)
from .sampler import (
    SrrwConfig,
    WalkTrace,
    Transform,
    Identity,
    Negation,
    IidSign,
    EchoLawLinear,
    ErwRotation,
    HistoryDependent,
    sample_walk,
    erw_config,
    draw_step,
    next_step_distribution,
    transform_from_literal,
)
from .forest import (
    PercolatedForest,
    ClusterStats,
    grow,
    clusters,
    assign_and_assemble,
    isolated_counts_batch,
    all_clusters_even_probability,
)
from .elephant import (
    ElephantPoly,
    LambdaTable,
    poly_sequence,
    lambda_table,
    LambdaBounds,
    lambda_bounds,
    eval_stable,
    signed_position_law,
    z2_return_gap,
    z2_return_gap_bounds,
    cycle_distribution,
    decay_envelope,
    decay_bound_check,
)
from .oracle import (
    ExactDistribution,
    exact_distribution,
    iid_convolution,
    exact_isolated_distribution,
    isolated_log_laws,
    tv_distance,
)
from .evolving import (
    MuStep,
    DeterministicStep,
    KernelSeq,
    kernel_seq_from_forest,
    step_pieces,
    martingale_defect,
    doob_step,
    psi,
    bottleneck,
    iso_profile,
    psi_profile,
    set_tree,
)
from .stats import Estimate, binomial_estimate, mean_estimate, wilson_interval
from .estimators import (
    point_mass_curve,
    mc_point_mass,
    mc_histogram,
    ball_curve,
    mc_ball,
    mc_escape_rate,
    DecayFit,
    rate_fit,
)
from .reports import config_hash, csv_bytes, parse_csv, json_bytes, VERSION
from .verify import CriterionResult, run_suites, SUITES

__version__ = VERSION

__all__ = [
    "stream", "as_generator",
    "Group", "CycleZL", "IntegerLatticeZd", "EuclideanRd", "RegularTreeFree",
    "LamplighterZ", "S3xZ", "StepDistribution",
    "group_from_literal", "is_class_function", "bfs_ball",
    "SrrwConfig", "WalkTrace", "Transform", "Identity", "Negation",
    "IidSign", "EchoLawLinear", "ErwRotation", "HistoryDependent",
    "sample_walk", "erw_config", "draw_step", "next_step_distribution",
    "transform_from_literal",
    "PercolatedForest", "ClusterStats", "grow", "clusters",
    "assign_and_assemble", "isolated_counts_batch",
    "all_clusters_even_probability",
    "ElephantPoly", "LambdaTable", "poly_sequence", "lambda_table",
    "LambdaBounds", "lambda_bounds", "eval_stable", "signed_position_law",
    "z2_return_gap", "z2_return_gap_bounds", "cycle_distribution",
    "decay_envelope", "decay_bound_check",
    "ExactDistribution", "exact_distribution", "iid_convolution",
    "exact_isolated_distribution", "isolated_log_laws", "tv_distance",
    "MuStep", "DeterministicStep", "KernelSeq", "kernel_seq_from_forest",
    "step_pieces", "martingale_defect", "doob_step", "psi", "bottleneck",
    "iso_profile", "psi_profile", "set_tree",
    "Estimate", "binomial_estimate", "mean_estimate", "wilson_interval",
    "point_mass_curve", "mc_point_mass", "mc_histogram",
    "ball_curve", "mc_ball", "mc_escape_rate",
    "DecayFit", "rate_fit",
    "config_hash", "csv_bytes", "parse_csv", "json_bytes",
    "CriterionResult", "run_suites", "SUITES",
    "VERSION",
]

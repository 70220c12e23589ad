"""Batched ant-colony TSP solver with pluggable selection mechanisms.

All m ants advance in lockstep through n-1 construction rounds against a
shared transition-probability matrix, so one iteration is a handful of
whole-colony array operations instead of per-ant Python loops. Selection is
pluggable: classic roulette-wheel sampling, independent roulette (argmax of
deviate-weighted probabilities), and an adaptive variant that anneals the
deviate exponent over iterations. Pheromone deposits come from the top-k
elite tours per iteration through one index-mapped scatter.

The ``oracle`` module holds deliberately naive reference implementations
(brute-force TSP, a per-ant sequential solver step, Monte-Carlo selection
distributions) used to validate the batched pipeline; import it explicitly.
"""

from .bench import (
    ExperimentConfig,
    IterationRecord,
    RunSummary,
    SyntheticSpec,
    load_instance,
    make_synthetic_instance,
    run_experiment,
    run_probability_shift_study,
    run_scaling_study,
)
from .colony import (
    NumericalUnderflow,
    RevisitedCity,
    compute_probability_matrix,
    construct_tours,
    iterate,
)
from .model import (
    AcoParams,
    DegenerateInstance,
    GammaSchedule,
    InvalidPermutation,
    PheromoneState,
    ProbabilityMatrix,
    Selection,
    TourBatch,
    TspInstance,
    batch_costs,
    build_instance,
    euclidean_instance,
    tour_cost,
)
from .pheromone import (
    accumulate_increments,
    apply_update,
    select_elite,
)
from .selection import (
    AllZeroWeights,
    gamma_at,
)
from .tsplib import (
    BEST_KNOWN,
    RawTspFile,
    TsplibParseError,
    parse_instance,
    parse_tour,
    serialize_instance,
)

__version__ = "0.1.0"

__all__ = [
    "AcoParams",
    "AllZeroWeights",
    "BEST_KNOWN",
    "DegenerateInstance",
    "ExperimentConfig",
    "GammaSchedule",
    "InvalidPermutation",
    "IterationRecord",
    "NumericalUnderflow",
    "PheromoneState",
    "ProbabilityMatrix",
    "RawTspFile",
    "RevisitedCity",
    "RunSummary",
    "Selection",
    "SyntheticSpec",
    "TourBatch",
    "TspInstance",
    "TsplibParseError",
    "accumulate_increments",
    "apply_update",
    "batch_costs",
    "build_instance",
    "compute_probability_matrix",
    "construct_tours",
    "euclidean_instance",
    "gamma_at",
    "iterate",
    "load_instance",
    "make_synthetic_instance",
    "parse_instance",
    "parse_tour",
    "run_experiment",
    "run_probability_shift_study",
    "run_scaling_study",
    "select_elite",
    "serialize_instance",
    "tour_cost",
]

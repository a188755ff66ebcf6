"""chmopt: a hybrid metaheuristic optimiser for continuous box-constrained
problems, with a 28-function benchmark harness and wrapper feature selection.

The hybrid alternates a probing phase (every inner optimizer tries the shared
population under a small evaluation budget) with a fitting phase (the probing
winner gets an extended budget), carrying the population across methods
without loss.
"""

from .benchmarks import (
    BENCHMARK_NAMES,
    BUCKET_BUDGETS,
    BUCKETS,
    BenchmarkSpec,
    UnknownBenchmark,
    catalogue_records,
    eval_benchmark,
    format_catalogue,
    get_benchmark,
    list_benchmarks,
    local_minimality_check,
    reference_minimum,
)
from .chm import (
    ChmConfig,
    EvaluationAborted,
    RunTrace,
    check_convergence,
    chm_run,
    probe_all,
    run_segmented,
)
from .core import (
    BudgetExhausted,
    BudgetedObjective,
    Individual,
    NonFiniteValue,
    Population,
    SeededRng,
    clamp_to_bounds,
    euclidean_distance,
    evaluate_population,
    fitness,
    mix_seed,
    random_population,
)
from .forest import ForestParams, RandomForest
from .fselect import (
    Dataset,
    FsReport,
    decode_mask,
    fs_cost,
    load_csv,
    make_synthetic_dataset,
    run_feature_selection,
    run_feature_selection_all,
    split_dataset,
)
from .harness import (
    ALL_METHODS,
    CHM_METHOD,
    ExperimentPlan,
    ExperimentResult,
    LeaderBoard,
    RunRecord,
    RunStats,
    aggregate_records,
    export_results,
    load_plan,
    replay_record,
    run_cell,
    run_experiment,
    run_method,
    save_plan,
    selection_frequencies,
)
from .optimizers import (
    OPTIMIZER_NAMES,
    BacterialForaging,
    BfoParams,
    DeParams,
    DifferentialEvolution,
    GaParams,
    GeneticAlgorithm,
    InnerOptimizer,
    ParticleSwarm,
    PsoParams,
    SaParams,
    SimulatedAnnealing,
    bfo_reproduce,
    blend_crossover,
    de_mutate,
    default_portfolio,
    make_optimizer,
    pso_velocity_update,
    sa_accept,
    tumble_direction,
)

__version__ = "0.1.0"

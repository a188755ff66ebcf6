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
    UnknownBenchmark,
    catalogue_records,
    eval_benchmark,
    format_catalogue,
    get_benchmark,
    list_benchmarks,
    local_minimality_check,
)
from .chm import (
    ChmConfig,
    EvaluationAborted,
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
    decode_mask,
    fs_cost,
    load_csv,
    make_synthetic_dataset,
    run_feature_selection,
    run_feature_selection_all,
    split_dataset,
)
from .harness import (
    ExperimentPlan,
    RunRecord,
    aggregate_records,
    export_results,
    load_plan,
    replay_record,
    run_cell,
    run_experiment,
    run_method,
    save_plan,
)
from .optimizers import (
    GaParams,
    PsoParams,
    bfo_reproduce,
    blend_crossover,
    make_optimizer,
    pso_velocity_update,
    sa_accept,
)

__version__ = "0.1.0"

"""chmopt: a hybrid metaheuristic optimiser for continuous box-constrained
problems, with a 28-function benchmark harness and wrapper feature selection.

The hybrid alternates a probing phase (every inner optimizer tries the shared
population under a small evaluation budget) with a fitting phase (the probing
winner gets an extended budget), carrying the population across methods
without loss.

The names below are the entry points; every other name is imported from its
module (``chmopt.core``, ``chmopt.optimizers``, ``chmopt.fselect``, ...).
"""

from .benchmarks import get_benchmark
from .chm import ChmConfig, chm_run
from .fselect import make_synthetic_dataset
from .harness import replay_record, run_method

__all__ = ["ChmConfig", "chm_run", "get_benchmark", "make_synthetic_dataset",
           "replay_record", "run_method"]

__version__ = "0.1.0"

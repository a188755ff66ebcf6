"""The rule of every scalar setting, written out apart from the code that
checks it: the values each accepts, the message a rejected value gets, and
the values on either side of each end of its range.

``RULES`` maps a builder (a record, an optimizer class, or a function that
takes the setting by keyword) to its settings. The boundary values depend
only on the accepted sets, so they hold for any version of the checks that
accepts the same sets.
"""
import math
import warnings
from dataclasses import dataclass

from chmopt.chm import ChmConfig
from chmopt.core import BudgetedObjective
from chmopt.forest import ForestParams
from chmopt.fselect import FselectPlan
from chmopt.harness import ExperimentPlan
from chmopt.optimizers import (
    BacterialForaging,
    DifferentialEvolution,
    GeneticAlgorithm,
    InnerOptimizer,
    ParticleSwarm,
    SimulatedAnnealing,
)

INF = math.inf


@dataclass(frozen=True)
class Count:
    """An int, not a bool, at or above ``low`` (None: any int)."""

    low: int | None = None

    def accepts(self, value) -> bool:
        return (isinstance(value, int) and not isinstance(value, bool)
                and (self.low is None or value >= self.low))

    def message(self, name, value) -> str:
        rule = "an integer" if self.low is None else f"an integer >= {self.low}"
        return f"{name} must be {rule}, got {value!r}"

    def boundary(self):
        if self.low is None:
            return [(-2 ** 70, True), (0, True), (2 ** 70, True)]
        return [(self.low, True), (self.low - 1, False)]


@dataclass(frozen=True)
class Real:
    """A finite number, not a bool, between ``low`` and ``high``; ``ends``
    says which ends are closed, as the interval's brackets do."""

    low: float
    high: float
    ends: str = "()"
    optional: bool = False  # None is accepted too

    @property
    def text(self) -> str:
        return f"{self.ends[0]}{self.low}, {self.high}{self.ends[1]}"

    def accepts(self, value) -> bool:
        if value is None:
            return self.optional
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int past the float range
            return False
        above = self.low <= value if self.ends[0] == "[" else self.low < value
        below = value <= self.high if self.ends[1] == "]" else value < self.high
        return finite and above and below

    def message(self, name, value) -> str:
        return f"{name} must be a finite number in {self.text}, got {value!r}"

    def boundary(self):
        """Each end, and the next float inside and outside it."""
        cases = [(None, True)] if self.optional else []
        for end, inward, closed in ((self.low, INF, self.ends[0] == "["),
                                    (self.high, -INF, self.ends[1] == "]")):
            cases.append((end, closed and math.isfinite(end)))
            cases.append((math.nextafter(end, inward), True))
            if math.isfinite(end):
                cases.append((math.nextafter(end, -inward), False))
        return cases


@dataclass(frozen=True)
class Flag:
    """A bool."""

    def accepts(self, value) -> bool:
        return isinstance(value, bool)

    def message(self, name, value) -> str:
        return f"{name} must be true or false, got {value!r}"

    def boundary(self):
        return [(True, True), (False, True), (0, False), (1, False)]


def small_plan(**kwargs):
    return ExperimentPlan(**{"name": "rules", "functions": ("matyas",), "methods": ("de",),
                             "repetitions": 1, **kwargs})


def small_fselect_plan(**kwargs):
    return FselectPlan(("de",), **kwargs)


def budgeted(cap):
    return BudgetedObjective(abs, cap)


POSITIVE = Real(0, INF)
UNIT = Real(0, 1, "[]")
RUN_COUNTS = dict.fromkeys(("iterations", "population_size", "convergence_patience"), Count(1))

RULES = {
    ParticleSwarm: {"inertia": Real(0, 1), "cognitive": POSITIVE, "social": POSITIVE,
                    "v_max_fraction": POSITIVE},
    SimulatedAnnealing: {"cooling": Real(0, 1), "step_fraction": POSITIVE,
                         "t0": Real(0, INF, optional=True), "t0_floor": POSITIVE},
    GeneticAlgorithm: {"tournament_size": Count(2), "crossover_rate": UNIT,
                       "blend_alpha": Real(0, INF, "[)"),
                       "mutation_rate": Real(0, 1, "[]", True),
                       "mutation_sigma_fraction": POSITIVE, "elitism": Count(0)},
    DifferentialEvolution: {"weight": Real(0, 2, "(]"), "crossover_rate": UNIT},
    BacterialForaging: {"chemotaxis_steps": Count(1), "swim_length": Count(1),
                        "reproduction_steps": Count(1),
                        "elimination_dispersal_steps": Count(1),
                        "dispersal_probability": UNIT, "step_fraction": POSITIVE},
    ForestParams: {"n_trees": Count(1), "max_depth": Count(1), "min_samples_split": Count(2),
                   "bootstrap": Flag()},
    ChmConfig: {**RUN_COUNTS, "maxfe_probing": Count(1), "maxfe_fit": Count(1),
                "convergence_epsilon": Real(-INF, INF)},
    small_plan: {**RUN_COUNTS, "repetitions": Count(1), "base_seed": Count(), "workers": Count(1),
                 "convergence_epsilon": Real(-INF, INF), "skip_on_error": Flag(),
                 "distance_to_nearest": Flag()},
    small_fselect_plan: {**dict.fromkeys(("repetitions", "population_size", "iterations",
                                          "maxfe_probing", "maxfe_fit"), Count(1)),
                         "seed": Count()},
    budgeted: {"cap": Count(0)},
}

# (builder, setting name, rule), one per setting
SETTINGS = [(builder, name, rule) for builder, rules in RULES.items()
            for name, rule in rules.items()]

# values of a wrong type, out of every range, or at the edge of a number type
HOSTILE = (None, "1", True, 2.5, -1, 0, math.nan, INF, -INF, 10 ** 400, [1])


def build(builder, name, value):
    """``builder`` given ``value`` for ``name``, its warnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return builder(**{name: value})


def setting_id(setting) -> str:
    """``<builder>.<setting>``. An optimizer class is labelled by its
    parameter set, ``<Name>Params`` after its method ``name``, so each id
    names the method and not the class that implements it."""
    builder, name, _ = setting
    if isinstance(builder, type) and issubclass(builder, InnerOptimizer):
        return f"{builder.name.capitalize()}Params.{name}"
    return f"{builder.__name__}.{name}"

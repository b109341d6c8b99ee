"""NaN fails every bound a constructor or entry point puts on a count, a
limit or a probability: each bound is a containment test, and every
comparison with NaN is false."""
from __future__ import annotations

from functools import partial

import pytest

from kneegp.bench import Experiment, Scenario
from kneegp.evolve import GpConfig, evolve
from kneegp.instgen import GenSpec
from kneegp.policy import KneeConfig, build_policy
from kneegp.rules import RulePair, leaf

from conftest import demo_instance

NAN = float("nan")
_TINY = GpConfig(population_size=4, max_generations=2, tournament_size=2)

_CASES = {
    "GenSpec-n_activities": (GenSpec, {"n_activities": NAN}, "counts must be positive"),
    "GenSpec-n_modes": (GenSpec, {"n_modes": NAN}, "counts must be positive"),
    "GenSpec-n_resources": (GenSpec, {"n_resources": NAN}, "counts must be positive"),
    "GenSpec-os_tolerance": (GenSpec, {"os_tolerance": NAN},
                             "key os_tolerance must be at least 0, not nan"),
    "GenSpec-move_budget": (GenSpec, {"move_budget": NAN},
                            "key move_budget must be at least 0, not nan"),
    "GpConfig-max_generations": (GpConfig, {"max_generations": NAN},
                                 "generation count cannot be negative"),
    "GpConfig-crossover_prob": (GpConfig, {"crossover_prob": NAN},
                                "crossover and mutation probabilities"),
    "GpConfig-mutation_prob": (GpConfig, {"mutation_prob": NAN},
                               "crossover and mutation probabilities"),
    "GpConfig-enumeration_limit": (GpConfig, {"enumeration_limit": NAN},
                                   "enumeration limit must be at least 1"),
    "KneeConfig-cap": (KneeConfig, {"cap": NAN}, "cap must be at least 1"),
    "KneeConfig-group_size_hard_limit": (KneeConfig, {"group_size_hard_limit": NAN},
                                         "hard limit must be at least 1"),
    "Scenario-n_train": (partial(Scenario, "s"), {"n_train": NAN},
                         "at least one train and test instance"),
    "Scenario-n_test": (partial(Scenario, "s"), {"n_test": NAN},
                        "at least one train and test instance"),
    "Experiment-n_runs": (partial(Experiment, (Scenario("s"),)), {"n_runs": NAN},
                          "run and realization counts must be positive"),
    "Experiment-test_realizations": (partial(Experiment, (Scenario("s"),)),
                                     {"test_realizations": NAN},
                                     "run and realization counts must be positive"),
    "build_policy-hard_limit": (partial(build_policy, RulePair(leaf("RR"), leaf("RR")), "ggp"),
                                {"hard_limit": NAN}, "hard limit must be at least 1"),
    "evolve-wall_limit": (partial(evolve, _TINY, [demo_instance()]), {"wall_limit": NAN},
                          "wall_limit must be at least 0, not nan"),
}


@pytest.mark.parametrize("make, kwargs, message", _CASES.values(), ids=_CASES)
def test_nan_fails_every_bound(make, kwargs, message):
    with pytest.raises(ValueError, match=message):
        make(**kwargs)

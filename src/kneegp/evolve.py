"""Genetic programming over priority-rule trees.

Individuals are RulePair values: an ordering tree plus, for group policies, a
group tree. Fitness is the mean relative deviation of the simulated makespan
from the critical-path lower bound, averaged over the training instances, so
lower is better. Every individual of a generation is scored on the same
freshly drawn duration tables, which keeps selection pressure honest under
uncertainty; the per-generation champions are re-scored on one final shared
draw to pick the overall winner.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from random import Random
from typing import ClassVar, Sequence

from .model import ProjectInstance
from .policy import DEFAULT_ENUMERATION_LIMIT, KneeConfig, build_policy
from .rules import ALL_TERMINALS, FUNCTION_ARITY, MAX_DEPTH, Node, RulePair, leaf
from .sim import DurationTable, derive_seed, sample_durations, solve

_FUNCTIONS = tuple(sorted(FUNCTION_ARITY))
_TERMINALS = tuple(ALL_TERMINALS)


class TrainingTimeout(RuntimeError):
    """Raised when training hits its wall-clock budget between generations."""

    def __init__(self, message: str, history: tuple = ()):
        super().__init__(message)
        self.history = history


@dataclass(frozen=True)
class GpConfig:
    """Training settings. Breeding draws crossover or mutation with their
    probabilities, and reproduction takes the rest, 1 - crossover - mutation."""

    what: ClassVar[str] = "GP config"
    population_size: int = 200
    max_generations: int = 50
    crossover_prob: float = 0.80
    mutation_prob: float = 0.15
    tournament_size: int = 5
    init_depth: tuple[int, int] = (2, 6)
    max_depth: int = 8
    seed: int = 0
    policy: str = "kggp-max"
    knee: KneeConfig = field(default_factory=KneeConfig)
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population needs at least two individuals")
        if self.max_generations < 0:
            raise ValueError("generation count cannot be negative")
        if not 2 <= self.tournament_size <= self.population_size:
            raise ValueError("tournament size out of range")
        lo, hi = self.init_depth
        if not 1 <= lo <= hi <= self.max_depth <= MAX_DEPTH:
            raise ValueError("init depths must satisfy 1 <= lo <= hi <= max, "
                             f"and max <= {MAX_DEPTH}")
        if min(self.crossover_prob, self.mutation_prob) < 0 \
                or self.crossover_prob + self.mutation_prob > 1:
            raise ValueError("crossover and mutation probabilities must be >= 0 "
                             "and sum to at most 1")
        if self.enumeration_limit < 1:
            raise ValueError("enumeration limit must be at least 1")

    @property
    def single_tree(self) -> bool:
        return self.policy == "sgp"


@dataclass(frozen=True)
class TrainingRun:
    """The keys of a training config besides its GP config keys."""

    what: ClassVar[str] = "training config"
    instances: tuple[str, ...] = ()  # paths, relative to the config file
    wall_limit: float | None = None


@dataclass(frozen=True)
class GenerationStat:
    generation: int
    best_fitness: float
    mean_fitness: float
    mean_ordering_size: float
    mean_group_size: float
    wall_seconds: float


@dataclass(frozen=True)
class CandidateReport:
    generation: int
    rules: RulePair
    train_fitness: float
    final_fitness: float


@dataclass(frozen=True)
class EvolveResult:
    best: RulePair
    best_fitness: float
    best_generation: int
    history: tuple[GenerationStat, ...]
    candidates: tuple[CandidateReport, ...]


# ---------------------------------------------------------------------------
# tree construction and variation

def random_tree(rng: Random, depth: int, method: str = "grow",
                root_must_branch: bool = False) -> Node:
    """Random expression of at most `depth` levels (`full` hits it exactly)."""
    if depth < 1:
        raise ValueError("depth must be positive")

    def build(budget: int, at_root: bool) -> Node:
        force_leaf = budget == 1
        force_func = (method == "full" and budget > 1) or (at_root and root_must_branch)
        if force_leaf or (not force_func and rng.random() < 0.5):
            return leaf(rng.choice(_TERMINALS))
        op = rng.choice(_FUNCTIONS)
        return Node(op, tuple(build(budget - 1, False)
                              for _ in range(FUNCTION_ARITY[op])))

    return build(depth, True)


def ramped_population(rng: Random, cfg: GpConfig) -> list[RulePair]:
    """Ramped half-and-half initial population."""
    lo, hi = cfg.init_depth
    depths = list(range(lo, hi + 1))
    pop = []
    for k in range(cfg.population_size):
        depth = depths[k % len(depths)]
        method = "grow" if (k // len(depths)) % 2 == 0 else "full"

        def fresh() -> Node:
            return random_tree(rng, depth, method, root_must_branch=True)

        pop.append(RulePair(fresh(), None if cfg.single_tree else fresh()))
    return pop


def _subtree(t: Node, path: tuple[int, ...]) -> Node:
    for k in path:
        t = t.children[k]
    return t


def _replace(t: Node, path: tuple[int, ...], sub: Node) -> Node:
    if not path:
        return sub
    children = list(t.children)
    children[path[0]] = _replace(children[path[0]], path[1:], sub)
    return Node(t.op, tuple(children))


def _common_paths(a: Node, b: Node, prefix: tuple[int, ...] = ()) -> list:
    # positions where both trees have a node and every ancestor pair agrees
    # on arity
    out = [prefix]
    if a.children and len(a.children) == len(b.children):
        for k, (ca, cb) in enumerate(zip(a.children, b.children)):
            out.extend(_common_paths(ca, cb, prefix + (k,)))
    return out


def _leftmost_leaf(t: Node) -> Node:
    while t.children:
        t = t.children[0]
    return t


def truncate_depth(t: Node, budget: int) -> Node:
    """Clip a tree to `budget` levels, folding deep branches to a leaf."""
    if t.is_leaf():
        return t
    if budget <= 1:
        return _leftmost_leaf(t)
    return Node(t.op, tuple(truncate_depth(c, budget - 1) for c in t.children))


def crossover(rng: Random, a: Node, b: Node, max_depth: int = 8) -> tuple[Node, Node]:
    """One-point crossover at a position the two trees share."""
    point = rng.choice(_common_paths(a, b))
    ca = _replace(a, point, _subtree(b, point))
    cb = _replace(b, point, _subtree(a, point))
    return truncate_depth(ca, max_depth), truncate_depth(cb, max_depth)


def mutate(rng: Random, t: Node, cfg: GpConfig) -> Node:
    """Replace a random subtree with a freshly grown one."""
    point = rng.choice(_common_paths(t, t))
    sub = random_tree(rng, rng.randint(*cfg.init_depth), "grow")
    return truncate_depth(_replace(t, point, sub), cfg.max_depth)


def pair_crossover(rng: Random, a: RulePair, b: RulePair,
                   cfg: GpConfig) -> tuple[RulePair, RulePair]:
    s1, s2 = crossover(rng, a.ordering, b.ordering, cfg.max_depth)
    if cfg.single_tree:
        return RulePair(s1), RulePair(s2)
    g1, g2 = crossover(rng, a.group, b.group, cfg.max_depth)
    return RulePair(s1, g1), RulePair(s2, g2)


def pair_mutate(rng: Random, a: RulePair, cfg: GpConfig) -> RulePair:
    if cfg.single_tree:
        return RulePair(mutate(rng, a.ordering, cfg))
    # at least one tree mutates; each is hit with probability one half
    which = rng.randrange(3)
    sigma = mutate(rng, a.ordering, cfg) if which in (0, 2) else a.ordering
    gamma = mutate(rng, a.group, cfg) if which in (1, 2) else a.group
    return RulePair(sigma, gamma)


def rule_size(rules: RulePair) -> tuple[int, int]:
    """Node counts of the ordering and group trees (0 when absent)."""
    return rules.ordering.size(), rules.group.size() if rules.group else 0


# ---------------------------------------------------------------------------
# evaluation and the main loop

def generation_tables(cfg: GpConfig, instances: Sequence[ProjectInstance],
                      generation: int) -> list[DurationTable]:
    """Shared duration draw for one generation, one table per instance.

    Each table draws a pair on its first read, so the whole population
    draws each (activity, mode) pair at most once per generation, and only
    the pairs some schedule starts."""
    return [
        sample_durations(inst, derive_seed(cfg.seed, "gen", generation, idx))
        for idx, inst in enumerate(instances)
    ]


def evaluate_rules(rules: RulePair, instances: Sequence[ProjectInstance],
                   tables: Sequence[DurationTable], cfg: GpConfig) -> float:
    policy = build_policy(rules, cfg.policy, cfg.knee, cfg.enumeration_limit)
    total = 0.0
    for inst, table in zip(instances, tables):
        res = solve(inst, policy, table)
        total += (res.makespan - inst.lower_bound) / inst.lower_bound
    return total / len(instances)


def _score_all(pop: Sequence[RulePair], instances: Sequence[ProjectInstance],
               tables: Sequence[DurationTable], cfg: GpConfig) -> list[float]:
    """Fitness of every rule pair on shared tables, each distinct pair scored
    once: solving is deterministic given the tables, so a repeat's score is
    exactly the first one's."""
    cache: dict[RulePair, float] = {}
    for ind in pop:
        if ind not in cache:
            cache[ind] = evaluate_rules(ind, instances, tables, cfg)
    return [cache[ind] for ind in pop]


def _tournament(rng: Random, pop: list[RulePair], scores: list[float],
                k: int) -> RulePair:
    picks = [rng.randrange(len(pop)) for _ in range(k)]
    return pop[min(picks, key=lambda i: scores[i])]


def evolve(cfg: GpConfig, instances: Sequence[ProjectInstance],
           wall_limit: float | None = None) -> EvolveResult:
    """Run the full training loop and return the re-evaluated champion."""
    if not instances:
        raise ValueError("need at least one training instance")
    for inst in instances:
        if inst.lower_bound <= 0:
            raise ValueError(
                f"instance lower bound must be positive, got {inst.lower_bound}")

    rng = Random(derive_seed(cfg.seed, "rng"))
    started = time.perf_counter()
    pop = ramped_population(rng, cfg)
    history: list[GenerationStat] = []
    champions: list[tuple[int, RulePair, float]] = []

    eval_gens = max(1, cfg.max_generations)
    for gen in range(eval_gens):
        if wall_limit is not None and time.perf_counter() - started > wall_limit:
            raise TrainingTimeout(
                f"training exceeded {wall_limit:.1f}s at generation {gen}",
                tuple(history))
        tick = time.perf_counter()
        tables = generation_tables(cfg, instances, gen)
        scores = _score_all(pop, instances, tables, cfg)
        best_i = min(range(len(pop)), key=lambda i: scores[i])
        history.append(GenerationStat(
            generation=gen,
            best_fitness=scores[best_i],
            mean_fitness=sum(scores) / len(scores),
            mean_ordering_size=sum(p.ordering.size() for p in pop) / len(pop),
            mean_group_size=(0.0 if cfg.single_tree else
                             sum(p.group.size() for p in pop) / len(pop)),
            wall_seconds=time.perf_counter() - tick,
        ))
        champions.append((gen, pop[best_i], scores[best_i]))
        if gen + 1 < eval_gens:
            pop = _breed(rng, pop, scores, cfg)

    final_tables = generation_tables(cfg, instances, cfg.max_generations)
    finals = _score_all([ind for _, ind, _ in champions], instances, final_tables, cfg)
    reports = tuple(
        CandidateReport(gen, ind, train, final)
        for (gen, ind, train), final in zip(champions, finals)
    )
    winner = min(reports, key=lambda r: (r.final_fitness, r.generation))
    return EvolveResult(
        best=winner.rules,
        best_fitness=winner.final_fitness,
        best_generation=winner.generation,
        history=tuple(history),
        candidates=reports,
    )


def _breed(rng: Random, pop: list[RulePair], scores: list[float],
           cfg: GpConfig) -> list[RulePair]:
    out: list[RulePair] = []
    while len(out) < len(pop):
        roll = rng.random()
        if roll < cfg.crossover_prob:
            pa = _tournament(rng, pop, scores, cfg.tournament_size)
            pb = _tournament(rng, pop, scores, cfg.tournament_size)
            c1, c2 = pair_crossover(rng, pa, pb, cfg)
            out.append(c1)
            if len(out) < len(pop):
                out.append(c2)
        elif roll < cfg.crossover_prob + cfg.mutation_prob:
            out.append(pair_mutate(
                rng, _tournament(rng, pop, scores, cfg.tournament_size), cfg))
        else:
            out.append(_tournament(rng, pop, scores, cfg.tournament_size))
    return out

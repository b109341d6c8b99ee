"""The benchmark's workloads: seeded inputs, one timed pass, and its checks.

A workload is set up from the run seed, then its pass is timed piece by piece
(`units`), then every schedule the pass hands back (or that the check
replays) is validated outside the timed part. The program only ever receives
the generated inputs.

What the seed varies is chosen so that the cost of a pass does not depend on
which seed it got: on this code, a pass costs what its rule trees and, for
exact enumeration, its instances make it cost, and these vary by a factor of
two from one draw to the next. So the rule trees come from fixed seeds, and
the run seed draws the rest:

* `Training` runs `bench.run_one` cells, alternating between the two desk
  scenarios. Each cell trains with a fixed GP seed on instances drawn from
  the run seed.
* `Solving` solves a fixed ramped population of rule pairs on a fixed corpus
  of instances, each pair on a fresh duration draw from the run seed, and
  times every `sim.solve` call.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from random import Random

from kneegp import bench, evolve, instgen, model, policy, sim
from kneegp.instgen import GenSpec
from kneegp.rules import format_sexpr
from kneegp.sim import derive_seed

DESK_SCENARIOS = (
    bench.Scenario("j30-os75", GenSpec(n_activities=30, n_modes=3,
                                       n_resources=4, order_strength=0.75)),
    bench.Scenario("j30-os50", GenSpec(n_activities=30, n_modes=3,
                                       n_resources=4, order_strength=0.5)),
)


@dataclass
class Check:
    """What the checks of one pass found."""

    attempted: int = 0
    failed: int = 0
    deviations: list[float] = field(default_factory=list)
    digest: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    solve_ns: list[int] = field(default_factory=list)
    validate_ns: list[int] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.errors.append(message)

    def score(self, inst, outcome) -> None:
        """Validate one schedule and add its deviation from the bound."""
        self.attempted += 1
        if isinstance(outcome, Exception):
            self.fail(1, f"solve raised {type(outcome).__name__}: {outcome}")
            self.digest.append(f"raised {type(outcome).__name__}")
            return
        t0 = time.perf_counter_ns()
        try:
            valid = model.validate_schedule(inst, outcome.schedule).ok
        except model.StructuralError as exc:
            valid = False
            self.errors.append(f"malformed schedule: {exc}")
        self.validate_ns.append(time.perf_counter_ns() - t0)
        if not valid:
            self.fail(1, "schedule fails validate_schedule")
        self.deviations.append(
            (outcome.makespan - inst.lower_bound) / inst.lower_bound)
        self.digest.append(f"makespan {outcome.makespan} decisions {len(outcome.decisions)}")


def force_analysis(instances, tracer) -> None:
    for inst in instances:
        tracer.frame("model.analysis", lambda: inst.analysis)


def timed_solve(inst, pol, table, solve_ns: list[int]):
    """`sim.solve` as the benchmark calls it: timed, failures kept."""
    t0 = time.perf_counter_ns()
    try:
        outcome = sim.solve(inst, pol, table)
    except Exception as exc:  # a failed schedule is counted, not fatal
        outcome = exc
    solve_ns.append(time.perf_counter_ns() - t0)
    return outcome


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class Cell:
    exp: bench.Experiment
    scenario: bench.Scenario
    trains: list
    tests: list


@dataclass(frozen=True)
class Training:
    policy: str
    cells: int
    population: int = 50
    generations: int = 2
    n_train: int = 3
    n_test: int = 5
    realizations: int = 5

    def setup(self, seed: int, tracer) -> list[Cell]:
        gp = evolve.GpConfig(population_size=self.population,
                             max_generations=self.generations,
                             tournament_size=min(5, self.population))
        cells = []
        for k in range(self.cells):
            scn = replace(DESK_SCENARIOS[k % len(DESK_SCENARIOS)],
                          n_train=self.n_train, n_test=self.n_test)
            exp = bench.Experiment(  # fixed: its seed picks the GP run's trees
                seed=derive_seed("cell", k), scenarios=(scn,),
                algorithms=(self.policy,), n_runs=1, gp=gp,
                test_realizations=self.realizations)
            trains, tests = (
                [instgen.generate_instance(scn.gen, derive_seed(seed, k, split, j))
                 for j in range(count)]
                for split, count in (("train", scn.n_train), ("test", scn.n_test)))
            force_analysis(trains + tests, tracer)
            cells.append(Cell(exp, scn, trains, tests))
        return cells

    def requested(self) -> int:
        """Schedules one pass asks for: every individual on every training
        instance in every generation, the champion re-scores, the tests."""
        gens = max(1, self.generations)
        per_cell = (self.population * self.n_train * gens
                    + gens * self.n_train
                    + self.n_test * self.realizations)
        return self.cells * per_cell

    def units(self, cells: list[Cell]) -> list:
        """The pass in timed pieces: one training cell each."""
        return [lambda c=c: bench.run_one(c.exp, c.scenario, self.policy, 0,
                                          c.trains, c.tests)
                for c in cells]

    def combine(self, parts: list) -> list:
        return parts

    def run(self, cells: list[Cell]) -> list:
        return self.combine([unit() for unit in self.units(cells)])

    def check(self, cells: list[Cell], reports: list) -> Check:
        """Re-score each champion, replay its tests and validate every replay."""
        out = Check()
        for c, rep in zip(cells, reports):
            head = f"{c.scenario.name} seed {rep.seed} status {rep.status}"
            if rep.status != "ok":
                out.attempted += self.n_train + self.n_test * self.realizations
                out.fail(self.n_train + self.n_test * self.realizations, head)
                out.digest.append(head)
                continue
            out.digest.append(
                f"{head} ordering {format_sexpr(rep.rules.ordering)}"
                f" group {format_sexpr(rep.rules.group) if rep.rules.group else '-'}"
                f" final {rep.final_fitness!r} gen0 {rep.gen0_fitness!r}"
                f" test {rep.test_objective!r} best_gen {rep.best_generation}"
                f" history {[h.best_fitness for h in rep.history]!r}")

            cfg = replace(c.exp.gp, policy=self.policy, seed=rep.seed)
            tables = evolve.generation_tables(cfg, c.trains, cfg.max_generations)
            out.attempted += self.n_train
            try:
                refit = evolve.evaluate_rules(rep.rules, c.trains, tables, cfg)
            except Exception as exc:  # counted as failed schedules
                out.fail(self.n_train, f"{head}: re-score raised {exc!r}")
            else:
                if refit.hex() != rep.final_fitness.hex():
                    out.fail(self.n_train, f"{head}: re-score {refit!r} "
                             f"!= best_fitness {rep.final_fitness!r}")
            if not rep.final_fitness <= rep.gen0_fitness:
                out.fail(0, f"{head}: final fitness above generation 0")

            pol = policy.build_policy(rep.rules, self.policy, c.exp.gp.knee,
                                      c.exp.gp.enumeration_limit)
            first = len(out.deviations)
            failed_before = out.failed
            for j, inst in enumerate(c.tests):
                for r in range(self.realizations):
                    table = sim.sample_durations(inst, derive_seed(
                        c.exp.seed, c.scenario.name, "test-real", j, r))
                    out.score(inst, timed_solve(inst, pol, table, out.solve_ns))
            replays = out.deviations[first:]
            if out.failed > failed_before:
                continue
            # same summation order as bench.evaluate_on_tests
            mean = sum(replays) / len(replays)
            if mean.hex() != rep.test_objective.hex():
                out.fail(len(replays), f"{head}: replayed test objective "
                         f"{mean!r} != {rep.test_objective!r}")
        return out


# ---------------------------------------------------------------------------
# solving


@dataclass(frozen=True)
class SolveInputs:
    instances: list
    pairs: list
    draw_seeds: list[int]


@dataclass(frozen=True)
class Solving:
    policy: str
    gen: GenSpec
    instances: int
    schedules: int
    chunk: int  # schedules per timed piece of the pass

    def setup(self, seed: int, tracer) -> SolveInputs:
        # fixed corpus: how wide an instance's eligible sets get sets what
        # enumeration costs, so a corpus drawn per seed would set the run's cost
        insts = [instgen.generate_instance(self.gen, derive_seed("instance", j))
                 for j in range(self.instances)]
        force_analysis(insts, tracer)
        cfg = evolve.GpConfig(population_size=self.schedules, max_generations=1,
                              policy=self.policy)
        pairs = evolve.ramped_population(Random(derive_seed("pairs")), cfg)
        draws = [derive_seed(seed, "draw", k) for k in range(self.schedules)]
        return SolveInputs(insts, pairs, draws)

    def requested(self) -> int:
        return self.schedules

    def units(self, inputs: SolveInputs) -> list:
        """The pass in timed pieces of `chunk` schedules each."""
        return [lambda lo=lo: self._solve(inputs, range(lo, min(lo + self.chunk,
                                                                 self.schedules)))
                for lo in range(0, self.schedules, self.chunk)]

    def _solve(self, inputs: SolveInputs, ks: range) -> tuple[list, list[int]]:
        """Pair k solves instance k mod n on its own draw."""
        out, solve_ns = [], []
        n = len(inputs.instances)
        for k in ks:
            inst = inputs.instances[k % n]
            pol = policy.build_policy(inputs.pairs[k], self.policy)
            table = sim.sample_durations(inst, inputs.draw_seeds[k])
            out.append(timed_solve(inst, pol, table, solve_ns))
        return out, solve_ns

    def combine(self, parts: list) -> tuple[list, list[int]]:
        return ([o for outs, _ in parts for o in outs],
                [ns for _, solve_ns in parts for ns in solve_ns])

    def run(self, inputs: SolveInputs) -> tuple[list, list[int]]:
        return self.combine([unit() for unit in self.units(inputs)])

    def check(self, inputs: SolveInputs, result: tuple[list, list[int]]) -> Check:
        outcomes, solve_ns = result
        out = Check(solve_ns=solve_ns)
        n = len(inputs.instances)
        for k, outcome in enumerate(outcomes):
            out.score(inputs.instances[k % n], outcome)
        return out


WORKLOADS = {
    "train-sgp-j30": Training("sgp", cells=12),
    "train-kggp-max-j30": Training("kggp-max", cells=12),
    "solve-kggp-all-j120": Solving(
        "kggp-all", GenSpec(n_activities=120, n_modes=3, n_resources=8,
                            order_strength=0.25), instances=10, schedules=100,
        chunk=10),
    "solve-ggp-j30": Solving("ggp", DESK_SCENARIOS[0].gen, instances=10,
                             schedules=800, chunk=100),
}

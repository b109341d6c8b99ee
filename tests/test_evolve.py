"""Tree generation, variation operators and the training loop."""
import random

import pytest

import kneegp.evolve as evolve_module
from kneegp.evolve import (
    CandidateReport,
    GpConfig,
    TrainingTimeout,
    _common_paths,
    _replace,
    crossover,
    evaluate_rules,
    evolve,
    generation_tables,
    mutate,
    pair_crossover,
    pair_mutate,
    ramped_population,
    random_tree,
    rule_size,
    truncate_depth,
)
from kneegp.model import from_dict
from kneegp.policy import KneeConfig, build_policy
from kneegp.rules import ALL_TERMINALS, FUNCTION_ARITY, MAX_DEPTH, Node, RulePair, func, leaf
from kneegp.sim import derive_seed, sample_durations, solve

from conftest import chain_instance, count_calls, random_instance, realized


def _assert_well_formed(t: Node):
    if not t.children:
        assert t.op in ALL_TERMINALS
    else:
        assert len(t.children) == FUNCTION_ARITY[t.op]
        for c in t.children:
            _assert_well_formed(c)


def test_full_trees_hit_the_depth_exactly():
    rng = random.Random(1)
    for depth in range(1, 7):
        for _ in range(20):
            t = random_tree(rng, depth, "full")
            _assert_well_formed(t)
            assert t.depth() == depth


def test_grow_trees_stay_within_depth():
    rng = random.Random(2)
    for depth in range(1, 7):
        for _ in range(40):
            t = random_tree(rng, depth, "grow")
            _assert_well_formed(t)
            assert 1 <= t.depth() <= depth


def test_forced_branching_root():
    rng = random.Random(3)
    for _ in range(50):
        t = random_tree(rng, 4, "grow", root_must_branch=True)
        assert t.children
    assert not random_tree(rng, 1, "grow", root_must_branch=True).children
    with pytest.raises(ValueError, match="depth must be positive"):
        random_tree(rng, 0)
    with pytest.raises(ValueError, match="method must be 'grow' or 'full', not 'Full'"):
        random_tree(rng, 4, "Full")


def test_ramped_population_shape():
    cfg = GpConfig(population_size=20, init_depth=(2, 4), seed=5)
    pop = ramped_population(random.Random(5), cfg)
    assert len(pop) == 20
    for pair in pop:
        _assert_well_formed(pair.ordering)
        _assert_well_formed(pair.group)
        assert 2 <= pair.ordering.depth() <= 4
        assert 2 <= pair.group.depth() <= 4
    depths = {p.ordering.depth() for p in pop}
    assert len(depths) >= 2  # ramp actually varies

    sgp_cfg = GpConfig(population_size=8, policy="sgp")
    for pair in ramped_population(random.Random(5), sgp_cfg):
        assert pair.group is None


def test_truncate_folds_deep_branches_to_their_leftmost_leaf():
    t = func("add", func("sub", leaf("EST"), leaf("EFT")), leaf("RR"))
    clipped = truncate_depth(t, 2)
    assert clipped == func("add", leaf("EST"), leaf("RR"))
    assert truncate_depth(t, 3) == t
    assert truncate_depth(t, 1) == leaf("EST")


def test_truncate_returns_a_tree_within_budget_itself():
    # a rebuilt copy would lose the cached hash and compiled forms
    rng = random.Random(19)
    for _ in range(100):
        t = random_tree(rng, rng.randint(1, 7), "grow")
        for budget in range(t.depth(), t.depth() + 3):
            assert truncate_depth(t, budget) is t
    t = func("add", func("sub", leaf("EST"), leaf("EFT")), leaf("RR"))
    clipped = truncate_depth(t, 2)
    assert clipped.children[1] is t.children[1]


def test_crossover_of_identical_parents_is_identity():
    rng = random.Random(7)
    for _ in range(60):
        t = random_tree(rng, rng.randint(2, 6), "grow")
        c1, c2 = crossover(rng, t, t)
        assert c1 == t
        assert c2 == t


def test_crossover_swaps_at_a_shared_position():
    a = func("add", leaf("EST"), leaf("EFT"))
    b = func("mul", leaf("GRD"), leaf("RR"))
    rng = random.Random(11)
    seen = set()
    for _ in range(100):
        c1, c2 = crossover(rng, a, b)
        _assert_well_formed(c1)
        _assert_well_formed(c2)
        seen.add((str(c1), str(c2)))
    # the three common positions: whole tree, left leaf, right leaf
    assert seen == {
        (str(b), str(a)),
        (str(func("add", leaf("GRD"), leaf("EFT"))),
         str(func("mul", leaf("EST"), leaf("RR")))),
        (str(func("add", leaf("EST"), leaf("RR"))),
         str(func("mul", leaf("GRD"), leaf("EFT")))),
    }


def test_crossover_respects_max_depth():
    rng = random.Random(13)
    for _ in range(80):
        a = random_tree(rng, 8, "full")
        b = random_tree(rng, 8, "full")
        c1, c2 = crossover(rng, a, b, max_depth=8)
        assert c1.depth() <= 8
        assert c2.depth() <= 8


def test_mutation_stays_well_formed_and_bounded():
    rng = random.Random(17)
    cfg = GpConfig(population_size=4, tournament_size=2, init_depth=(2, 4), max_depth=6)
    changed = 0
    for _ in range(80):
        t = random_tree(rng, 6, "grow")
        m = mutate(rng, t, cfg)
        _assert_well_formed(m)
        assert m.depth() <= 6
        changed += m != t
    assert changed > 40  # mutation usually does something


def test_mutation_at_the_depth_bound_never_nests_deeper():
    """A subtree grown below a deep point is cut before it is grafted, so
    no tree built on the way passes `MAX_DEPTH`."""
    cfg = GpConfig(max_depth=MAX_DEPTH)
    t = leaf("ExpDur")
    for k in range(MAX_DEPTH - 1):
        t = func("add", t, leaf("RR")) if k % 2 else func("neg", t)
    rng = random.Random(64)
    for _ in range(300):
        m = mutate(rng, t, cfg)
        _assert_well_formed(m)
        assert m.depth() <= MAX_DEPTH


def test_mutation_equals_grafting_then_cutting():
    """`mutate` gives the tree that grafting the uncut subtree and then
    cutting the whole to `max_depth` gives, with the same draws."""
    cfg = GpConfig()
    rng = random.Random(23)
    for k in range(300):
        t = random_tree(rng, rng.randint(1, 8), rng.choice(["grow", "full"]))
        ref = random.Random(k)
        point = ref.choice(_common_paths(t, t))
        sub = random_tree(ref, ref.randint(*cfg.init_depth), "grow")
        assert mutate(random.Random(k), t, cfg) == \
            truncate_depth(_replace(t, point, sub), cfg.max_depth)


def test_pair_operators_touch_the_right_trees():
    rng = random.Random(19)
    cfg = GpConfig(population_size=4, tournament_size=2)
    a = RulePair(leaf("EST"), leaf("RR"))
    b = RulePair(leaf("LFT"), leaf("GRD"))
    c1, c2 = pair_crossover(rng, a, b, cfg)
    assert c1.group is not None and c2.group is not None

    saw_sigma = saw_gamma = False
    for _ in range(60):
        m = pair_mutate(rng, a, cfg)
        assert m.group is not None
        saw_sigma |= m.ordering != a.ordering
        saw_gamma |= m.group != a.group
        assert m.ordering != a.ordering or m.group != a.group
    assert saw_sigma and saw_gamma

    sgp = GpConfig(population_size=4, tournament_size=2, policy="sgp")
    sa, sb = RulePair(leaf("EST")), RulePair(leaf("LFT"))
    d1, d2 = pair_crossover(rng, sa, sb, sgp)
    assert d1.group is None and d2.group is None
    assert pair_mutate(rng, sa, sgp).group is None


def test_rule_size_counts_both_trees():
    both = RulePair(func("add", leaf("EST"), leaf("EFT")), leaf("RR"))
    assert rule_size(both) == (3, 1)
    assert rule_size(RulePair(func("neg", leaf("LFT")))) == (2, 0)


def test_fitness_is_zero_on_deterministic_optimum():
    inst = chain_instance([3, 4])
    cfg = GpConfig(population_size=2, tournament_size=2, policy="sgp")
    tables = generation_tables(cfg, [inst], 0)
    assert evaluate_rules(RulePair(leaf("LFT")), [inst], tables, cfg) == 0.0


def test_fitness_averages_relative_deviation(demo):
    chain = chain_instance([3, 4])
    cfg = GpConfig(population_size=2, tournament_size=2, policy="sgp", seed=21)
    rules = RulePair(leaf("LFT"))
    tables = generation_tables(cfg, [demo, chain], 0)
    run = solve(demo, build_policy(rules, "sgp"), tables[0])
    expect = ((run.makespan - demo.lower_bound) / demo.lower_bound + 0.0) / 2
    assert evaluate_rules(rules, [demo, chain], tables, cfg) == pytest.approx(expect)


def test_generation_tables_are_deterministic_and_fresh(demo):
    cfg = GpConfig(population_size=2, tournament_size=2, seed=33)
    t0a = generation_tables(cfg, [demo], 0)[0]
    t0b = generation_tables(cfg, [demo], 0)[0]
    t1 = generation_tables(cfg, [demo], 1)[0]
    assert realized(t0a) == realized(t0b)
    assert realized(t0a) != realized(t1)


def test_shared_generation_tables_draw_each_pair_once(monkeypatch):
    draws = count_calls(monkeypatch, "realized_duration")  # (seed, i, m)
    rng = random.Random(17)
    instances = [random_instance(rng, n=8, n_modes=3) for _ in range(3)]
    cfg = GpConfig(population_size=2, tournament_size=2, policy="kggp-max", seed=5)
    tables = generation_tables(cfg, instances, 0)
    for _ in range(8):
        rules = RulePair(random_tree(rng, 4), random_tree(rng, 4))
        evaluate_rules(rules, instances, tables, cfg)
    pairs = sum(a.n_modes for inst in instances for a in inst.activities)
    assert 0 < len(draws) == len(set(draws)) <= pairs


def _strip(result):
    return (
        result.best,
        result.best_fitness,
        result.best_generation,
        [(h.generation, h.best_fitness, h.mean_fitness,
          h.mean_ordering_size, h.mean_group_size) for h in result.history],
        [(c.generation, c.rules, c.train_fitness, c.final_fitness)
         for c in result.candidates],
    )


def test_evolve_runs_and_is_deterministic(demo):
    cfg = GpConfig(population_size=6, max_generations=3, tournament_size=2,
                   init_depth=(2, 3), seed=99)
    r1 = evolve(cfg, [demo])
    r2 = evolve(cfg, [demo])
    assert _strip(r1) == _strip(r2)
    assert [h.generation for h in r1.history] == [0, 1, 2]
    assert len(r1.candidates) == 3
    assert r1.best_fitness >= 0.0
    assert r1.best.group is not None
    assert all(isinstance(c, CandidateReport) for c in r1.candidates)
    # champion never loses to the first generation on the shared final draw
    assert r1.best_fitness <= r1.candidates[0].final_fitness


def _uncached_evolve(cfg, instances):
    """Reference training loop that scores every individual, repeats too.

    Returns the per-generation populations, the champions and the
    stripped result (see `_strip`)."""
    rng = random.Random(derive_seed(cfg.seed, "rng"))
    pop = ramped_population(rng, cfg)
    pops, history, champions = [], [], []
    gens = max(1, cfg.max_generations)
    for gen in range(gens):
        tables = generation_tables(cfg, instances, gen)
        scores = [evaluate_rules(ind, instances, tables, cfg) for ind in pop]
        best = min(range(len(pop)), key=lambda i: scores[i])
        pops.append(pop)
        history.append((gen, scores[best], sum(scores) / len(scores),
                        sum(p.ordering.size() for p in pop) / len(pop),
                        sum(p.group.size() for p in pop) / len(pop)))
        champions.append((gen, pop[best], scores[best]))
        if gen + 1 < gens:
            pop = evolve_module._breed(rng, pop, scores, cfg)
    final = generation_tables(cfg, instances, cfg.max_generations)
    reports = [(gen, ind, train, evaluate_rules(ind, instances, final, cfg))
               for gen, ind, train in champions]
    winner = min(reports, key=lambda r: (r[3], r[0]))
    return pops, champions, (winner[1], winner[3], winner[0], history, reports)


def test_fitness_cache_scores_each_distinct_individual_once(demo, monkeypatch):
    cfg = GpConfig(population_size=10, max_generations=6, tournament_size=4,
                   init_depth=(2, 3), crossover_prob=0.3, mutation_prob=0.1, seed=3)
    chain = chain_instance([3, 4, 2])
    pops, champions, expected = _uncached_evolve(cfg, [demo, chain])

    calls = []

    def counting(rules, instances, tables, cfg):
        calls.append((rules, tuple(t.seed for t in tables)))
        return evaluate_rules(rules, instances, tables, cfg)

    monkeypatch.setattr(evolve_module, "evaluate_rules", counting)
    result = evolve(cfg, [demo, chain])

    assert _strip(result) == expected
    assert len(calls) == len(set(calls))
    distinct = sum(len(set(p)) for p in pops) + len({ind for _, ind, _ in champions})
    assert len(calls) == distinct
    # the configuration breeds repeats, so the cache was actually used
    assert distinct < sum(len(p) for p in pops) + len(champions)


@pytest.mark.parametrize("policy", ["sgp", "kggp-max"])
def test_training_builds_no_typed_record(monkeypatch, demo, policy):
    """Fitness reads only the makespan, so neither scoring a rule pair nor a
    training run builds a `DecisionRecord` or a `ScheduleEntry`; reading a
    result's decision log does."""
    import kneegp.sim

    made = []
    for name in ("DecisionRecord", "ScheduleEntry"):
        def counted(*args, real=getattr(kneegp.sim, name), name=name):
            made.append(name)
            return real(*args)

        monkeypatch.setattr(kneegp.sim, name, counted)
    cfg = GpConfig(population_size=6, max_generations=2, tournament_size=2,
                   init_depth=(2, 3), policy=policy, seed=13)
    instances = [demo, random_instance(random.Random(5), n=8, zero_prob=0.2)]
    tables = generation_tables(cfg, instances, 0)
    rules = ramped_population(random.Random(3), cfg)[0]
    evaluate_rules(rules, instances, tables, cfg)
    evolve(cfg, instances)
    res = solve(demo, build_policy(rules, policy), tables[0])
    assert made == []
    res.decisions
    assert made and set(made) == {"DecisionRecord"}


def test_evolve_zero_generations_scores_the_initial_population(demo):
    cfg = GpConfig(population_size=5, max_generations=0, tournament_size=2,
                   init_depth=(2, 3), seed=7)
    res = evolve(cfg, [demo])
    assert len(res.history) == 1
    assert res.history[0].generation == 0
    assert res.best_generation == 0
    # with no evolution the final draw is the training draw
    assert res.best_fitness == res.candidates[0].train_fitness


def test_evolve_single_tree_mode(demo):
    cfg = GpConfig(population_size=5, max_generations=2, tournament_size=2,
                   init_depth=(2, 3), policy="sgp", seed=55)
    res = evolve(cfg, [demo])
    assert res.best.group is None
    assert all(h.mean_group_size == 0.0 for h in res.history)


def test_evolve_wall_limit(demo):
    cfg = GpConfig(population_size=4, max_generations=2, tournament_size=2, seed=1)
    with pytest.raises(TrainingTimeout) as exc:
        evolve(cfg, [demo], wall_limit=0.0)
    assert exc.value.history == ()


def test_evolve_rejects_bad_inputs(demo):
    cfg = GpConfig(population_size=4, tournament_size=2)
    with pytest.raises(ValueError):
        evolve(cfg, [])
    zero_lb = chain_instance([])
    with pytest.raises(ValueError):
        evolve(cfg, [zero_lb])


def test_config_rejects_enumeration_limit_below_one():
    for limit in (0, -1):
        with pytest.raises(ValueError, match="enumeration limit"):
            GpConfig(enumeration_limit=limit)
    assert GpConfig(enumeration_limit=1).enumeration_limit == 1


def test_config_loader_rejects_unknown_keys():
    raw = {"population_size": 4, "tournament_size": 2, "policy": "sgp",
           "init_depth": [2, 3], "knee": {"cap": 4}}
    assert from_dict(GpConfig, raw) == GpConfig(
        population_size=4, tournament_size=2, policy="sgp", init_depth=(2, 3),
        knee=KneeConfig(cap=4))
    with pytest.raises(ValueError, match="GP config key.*populaton_size"):
        from_dict(GpConfig, dict(raw, populaton_size=8))
    with pytest.raises(ValueError, match="knee config key.*capp"):
        from_dict(GpConfig, dict(raw, knee={"capp": 4}))


def test_config_validation():
    with pytest.raises(ValueError):
        GpConfig(population_size=1)
    with pytest.raises(ValueError, match="generation count cannot be negative"):
        GpConfig(max_generations=-1)
    with pytest.raises(ValueError):
        GpConfig(crossover_prob=0.9, mutation_prob=0.15)
    with pytest.raises(ValueError):
        GpConfig(crossover_prob=0.8, mutation_prob=-0.05)
    with pytest.raises(ValueError):
        GpConfig(tournament_size=0)
    with pytest.raises(ValueError):
        GpConfig(init_depth=(3, 2))
    with pytest.raises(ValueError):
        GpConfig(init_depth=(2, 9), max_depth=8)
    with pytest.raises(ValueError, match="unknown policy 'foo'; pick one of sgp, ggp"):
        GpConfig(policy="foo")

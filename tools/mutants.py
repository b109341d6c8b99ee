"""Named mutants of `src/`, each with the tests that must catch it.

    python3 tools/mutants.py [NAME ...]

For each mutant (all of them, or the ones named), copies `src/` to a
temporary directory, replaces the mutant's snippet in its file there and
runs only the mutant's tests, with `python -m pytest` from the repo root
and the copy first on the import path. A mutant is *killed* when a test
fails, *survived* when they all pass, *timed out* when its run takes longer
than `TIMEOUT` seconds (a mutant that hangs a test), and *stale* when its
snippet does not occur exactly once in its file or pytest could not run its
tests (a renamed test, a mutant that does not import). Prints one line per
mutant and the totals, and exits 1 unless every mutant was killed. Standard
library only.

A change that has a mutation check in mind adds the mutant here, so that
any later change can rerun it.
"""
from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# the longest a mutant's test run may take, in seconds: far more than any
# mutant of the list takes, so only a run that hangs reaches it
TIMEOUT = 300


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    snippet: str  # exact source text, found exactly once in `file`
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repo root


_RULES, _SIM, _EVOLVE, _MODEL, _POLICY, _BENCH, _INSTGEN = (
    "kneegp/rules.py", "kneegp/sim.py", "kneegp/evolve.py", "kneegp/model.py",
    "kneegp/policy.py", "kneegp/bench.py", "kneegp/instgen.py")

# the lines of `rules._body` between its memo lookup and its memo entry
_BODY_CHECK = """\
    if n.op not in _FUNCTIONS or FUNCTION_ARITY[n.op] != len(n.children):
        raise ValueError(f"bad function node {n.op!r} with {len(n.children)} children")
    args = [_emit(c, table, terms, lines, done) for c in n.children]
"""

_REFUSED = "tests/test_cli.py::test_a_wrongly_typed_config_value_is_reported"
_MIN_MAX = "tests/test_rules.py::test_min_and_max_templates_return_what_the_builtins_return"
_PICK = "tests/test_rules.py::test_pick_equals_the_reference_min_at_every_decision_of_solve"
_PICK_CONDITION = '"if best is None or value < low or value == low and pair < best:",'
_NAN = "tests/test_limits.py::test_nan_fails_every_bound"

MUTANTS: tuple[Mutant, ...] = (
    # the depth bound where a tree is built
    Mutant("node-bound-at-ge", _RULES,
           "        if depth > MAX_DEPTH:\n            raise ValueError(f\"{op} would",
           "        if depth >= MAX_DEPTH:\n            raise ValueError(f\"{op} would",
           ("tests/test_rules.py::test_node_refuses_a_tree_deeper_than_the_bound",)),
    Mutant("node-depth-off-by-one", _RULES,
           'depth = 1 + max(map(attrgetter("_depth"), children)) if children else 1',
           'depth = 1 + max(map(attrgetter("_depth"), children)) if children else 0',
           ("tests/test_rules.py::test_node_refuses_a_tree_deeper_than_the_bound",)),
    Mutant("node-size-without-self", _RULES,
           "return 1 + sum(c._size for c in self.children)",
           "return sum(c._size for c in self.children)",
           ("tests/test_rules.py::test_every_walk_works_at_the_depth_bound",)),
    Mutant("body-memo-by-op", _RULES,
           "    if id(n) in done:\n        return done[id(n)]\n" + _BODY_CHECK
           + "    v = done[id(n)] = ",
           "    if n.op in done:\n        return done[n.op]\n" + _BODY_CHECK
           + "    v = done[n.op] = ",
           ("tests/test_rules.py::test_compiled_trees_equal_the_interpreter_exactly",)),
    Mutant("mutate-grafts-uncut", _EVOLVE,
           "    sub = truncate_depth(sub, max(1, cfg.max_depth - len(point)))\n", "",
           ("tests/test_evolve.py::test_mutation_at_the_depth_bound_never_nests_deeper",)),
    # the pair terminals at a ready pair
    Mutant("est-as-int", _RULES, '"EST": "0.0",', '"EST": "0",',
           ("tests/test_rules.py::test_time_terminals_exact_at_every_decision_of_solve",)),
    Mutant("eft-without-float", _RULES, '"EFT": "0.0 + r[0]",', '"EFT": "r[0]",',
           ("tests/test_rules.py::test_time_terminals_exact_at_every_decision_of_solve",)),
    # one template per terminal, for a pair and a group alike
    Mutant("group-tsc-dsc-swapped", _RULES,
           '    "TSC": "{tsucc}.bit_count()",\n    "DSC": "{succ}.bit_count()",',
           '    "TSC": "{succ}.bit_count()",\n    "DSC": "{tsucc}.bit_count()",',
           ("tests/test_rules.py::test_counts",
            "tests/test_rules.py::test_group_union_count",
            "tests/test_policy.py::test_every_group_decision_of_a_solve_equals_the_reference",
            "tests/test_policy.py::test_group_choice_equals_the_reference_on_random_slots")),
    Mutant("dpc-reads-successors", _RULES,
           '"DPC": "{pred}.bit_count()",', '"DPC": "{succ}.bit_count()",',
           ("tests/test_rules.py::test_compiled_trees_equal_the_interpreter_exactly",
            "tests/test_policy.py::test_group_choice_equals_the_reference_on_random_slots",
            "tests/test_policy.py::test_every_group_decision_of_a_solve_equals_the_reference")),
    # two-argument `min` and `max` written out: the first of equals wins
    Mutant("min-keeps-the-later-of-equals", _RULES, '"min": "{1} if {1} < {0} else {0}",',
           '"min": "{1} if {1} <= {0} else {0}",', (_MIN_MAX + "[min]",)),
    Mutant("max-keeps-the-later-of-equals", _RULES, '"max": "{1} if {1} > {0} else {0}",',
           '"max": "{1} if {1} >= {0} else {0}",', (_MIN_MAX + "[max]",)),
    # the pick form: equal values go to the lower pair, wherever it stands
    Mutant("pick-ties-on-the-later-pair", _RULES, _PICK_CONDITION,
           '"if best is None or value <= low:",', (_PICK,)),
    Mutant("pick-skips-the-pair-tie-break", _RULES, _PICK_CONDITION,
           '"if best is None or value < low:",', (_PICK,)),
    Mutant("mul-unclamped", _RULES, '_CLAMPED = frozenset({"add", "sub", "mul", "div"})',
           '_CLAMPED = frozenset({"add", "sub", "div"})',
           ("tests/test_rules.py::test_clamp_blocks_overflow",)),
    # packed capacity in the decision form
    Mutant("take-tests-any-guard-bit", _RULES, "            if x & G == G:",
           "            if x & G:",
           ("tests/test_policy.py::test_group_choice_equals_the_reference_on_random_slots",)),
    Mutant("extendable-tests-any-guard-bit", _RULES,
           "            if (free - o[1]) & guard == guard:\n                return True",
           "            if (free - o[1]) & guard:\n                return True",
           ("tests/test_policy.py::test_group_choice_equals_the_reference_on_random_slots",)),
    Mutant("packed-demand-of-the-first-mode", _RULES,
           "options[i][m][1]{shares}", "options[i][0][1]{shares}",
           ("tests/test_policy.py::test_group_choice_equals_the_reference_on_random_slots",
            "tests/test_policy.py::test_every_group_decision_of_a_solve_equals_the_reference")),
    # the decision form's wide lanes and its tie-break on id masks
    Mutant("tie-break-past-e-strictly", _RULES,
           "return b >= e << 1 if a & e else a < e", "return b > e << 1 if a & e else a < e",
           ("tests/test_rules.py::test_the_id_mask_tie_break_orders_as_sorted_id_lists",)),
    Mutant("split-one-byte-short", _MODEL, 'x.to_bytes(n, "little")',
           'x.to_bytes(n - 1, "little")',
           ("tests/test_model.py::test_split_returns_the_lanes_of_a_wide_packed_vector",
            "tests/test_policy.py::test_group_choice_equals_the_reference_on_random_slots")),
    Mutant("wide-width-stays-at-8", _MODEL, "        while top >> width:\n            width *= 2\n",
           "",
           ("tests/test_model.py::test_split_returns_the_lanes_of_a_wide_packed_vector",
            "tests/test_policy.py::test_the_decision_form_equals_the_reference_at_wide_lanes")),
    Mutant("left-read-as-the-demand", _RULES, '"left": "split(A - P)"', '"left": "split(P)"',
           ("tests/test_policy.py::test_the_decision_form_equals_the_reference_at_wide_lanes",
            "tests/test_policy.py::test_group_choice_equals_the_reference_on_random_slots")),
    Mutant("byte-sum-two-tables", _MODEL,
           'return sum(map(getitem, tables, mask.to_bytes(len(tables), "little")))',
           'return sum(map(getitem, tables[:2], mask.to_bytes(len(tables), "little")))',
           ("tests/test_rules.py::test_compiled_trees_equal_the_interpreter_exactly",)),
    # packed free capacity: the context's unpacked copy and the lone option
    Mutant("unpack-keeps-guard-bit", _MODEL, "low = (1 << width - 1) - 1",
           "low = (1 << width) - 1", ("tests/test_model.py::test_unpack_inverts_pack_free",)),
    Mutant("lone-option-tests-any-guard-bit", _POLICY,
           "if (ctx.free - ana.options[i][m][1]) & G == G:",
           "if (ctx.free - ana.options[i][m][1]) & G:",
           ("tests/test_policy.py::test_a_lone_option_is_taken_only_if_it_fits",)),
    # the executor
    Mutant("completion-keeps-its-demand", _SIM,
           "            m, _ = running.pop(i)\n            free += opts[i][m][1]\n",
           "            m, _ = running.pop(i)\n",
           ("tests/test_sim.py::test_free_capacity_is_the_capacities_less_the_running_demands",)),
    Mutant("ready-with-one-predecessor-left", _SIM,
           "if not waiting[j] and j in real:", "if waiting[j] <= 1 and j in real:",
           ("tests/test_rules.py::test_time_terminals_exact_at_every_decision_of_solve",)),
    Mutant("started-stays-ready", _SIM, "                ready.discard(i)\n", "",
           ("tests/test_rules.py::test_time_terminals_exact_at_every_decision_of_solve",)),
    Mutant("within-clock-without-fit", _SIM,
           "if p[0] in ready\n" + " " * 24 + "and (free - opts[p[0]][p[1]][1]) & guard == guard]",
           "if p[0] in ready]",
           ("tests/test_sim.py::test_eligible_sets_at_the_lane_edges",)),
    Mutant("lone-pair-trusted-unchecked", _SIM,
           "if len(group) != 1 or group[0] not in elig:", "if len(group) != 1:",
           ("tests/test_sim.py::test_a_lone_pair_outside_the_eligible_list_is_refused",)),
    Mutant("check-group-without-guard-test", _SIM,
           "        if left & guard == guard:\n            left -= opts[i][m][1]",
           "        left -= opts[i][m][1]",
           ("tests/test_sim.py::test_contract_counts_members_at_a_lane_top_one_at_a_time",)),
    # the horizon: the first activity of `horizon_order` not yet started, from
    # one cursor per solve
    Mutant("horizon-cursor-skips-only-completed", _RULES,
           "            if i not in done and i not in running:\n                cursor[0] = k",
           "            if i not in done:\n                cursor[0] = k",
           ("tests/test_rules.py::test_time_terminals_equal_the_reference_passes",
            "tests/test_sim.py::test_a_live_context_reads_as_a_copying_one")),
    Mutant("solve-copies-its-state", _SIM,
           "ctx = live(inst, t, free, completed, running, cursor)",
           "ctx = DecisionContext(inst, t, free, completed, running)",
           ("tests/test_sim.py::test_a_live_context_reads_as_a_copying_one",)),
    Mutant("horizon-cursor-per-context", _SIM,
           "ctx = live(inst, t, free, completed, running, cursor)",
           "ctx = live(inst, t, free, completed, running, [0])",
           ("tests/test_sim.py::test_a_live_context_reads_as_a_copying_one",)),
    # the knee width: a hard limit of 1 or 2 subsets leaves one slot
    Mutant("knee-width-floor-of-two", _POLICY,
           "max(1, (cfg.group_size_hard_limit + 1).bit_length() - 1)",
           "max(2, (cfg.group_size_hard_limit + 1).bit_length() - 1)",
           ("tests/test_policy.py::test_a_hard_limit_below_three_scores_one_group_at_most",)),
    # the module-level recursions that grow and read a tree
    Mutant("grow-ignores-the-root-branch", _EVOLVE,
           "(not (full or branch) and rng.random() < 0.5)", "(not full and rng.random() < 0.5)",
           ("tests/test_evolve.py::test_forced_branching_root",)),
    Mutant("random-tree-accepts-any-method", _EVOLVE,
           "    if method not in (\"grow\", \"full\"):\n", "    if False:\n",
           ("tests/test_evolve.py::test_forced_branching_root",)),
    # the generator's climb: a refused edge leaves the closure as it was
    Mutant("climb-keeps-a-refused-edge", _INSTGEN,
           "            reach[:u + 1] = kept  # overshoot: the closure is as it was\n", "",
           ("tests/test_instgen.py::test_generated_instance_bytes_are_pinned",)),
    Mutant("add-edge-skips-u", _INSTGEN, "for a in range(1, u + 1):", "for a in range(1, u):",
           ("tests/test_instgen.py::test_adding_an_edge_keeps_the_closure_a_rebuild_gives",)),
    Mutant("empty-band-climbs", _INSTGEN, "if int(target + slack) < target - slack:",
           "if False:",
           ("tests/test_instgen.py::test_an_empty_order_strength_band_is_refused_before_the_climb",)),
    Mutant("capacity-sweep-unsorted", _INSTGEN, "for t in sorted(delta):", "for t in delta:",
           ("tests/test_instgen.py::test_derive_capacities_equals_the_dense_sweep",)),
    Mutant("short-mode-floor-of-two", _INSTGEN, "max(1, exp - shrink)", "max(2, exp - shrink)",
           ("tests/test_instgen.py::test_short_modes_keep_a_minimum_duration_of_one",)),
    Mutant("read-skips-the-token-after-a-leaf", _RULES,
           "        return leaf(tok), pos\n", "        return leaf(tok), pos + 1\n",
           # test_rules.py parses at import, so a broken reader fails its collection
           ("tests/test_bench.py::test_rule_file_round_trip",)),
    # a result's plain tuples and the records built from them
    Mutant("makespan-keeps-last-end", _SIM,
           "makespan = max((s + d for _, s, d in starts.values()), default=0)",
           "makespan = [0, *(s + d for _, s, d in starts.values())][-1]",
           ("tests/test_sim.py::test_records_equal_the_eager_reference",)),
    Mutant("schedule-swaps-start-and-duration", _SIM,
           "ScheduleEntry(*e) for i, e in self.starts.items()",
           "ScheduleEntry(e[0], e[2], e[1]) for i, e in self.starts.items()",
           ("tests/test_sim.py::test_records_equal_the_eager_reference",)),
    Mutant("log-keeps-eligible-as-filtered", _SIM,
           "log.append((t, len(elig), filtered, group))",
           "log.append((t, len(elig), len(elig), group))",
           ("tests/test_sim.py::test_records_equal_the_eager_reference",)),
    Mutant("lazy-stores-nothing", _MODEL,
           "value = obj.__dict__[self.name] = self.func(obj)", "value = self.func(obj)",
           ("tests/test_rules.py::test_a_lazy_attribute_is_computed_once",)),
    Mutant("sink-counter-stops-early", _SIM,
           "while waiting[sink]:", "while waiting[sink] > 1:",
           ("tests/test_sim.py::test_ready_set_matches_full_rescan",
            "tests/test_sim.py::test_presampling_matches_lazy_reveal",
            "tests/test_sim.py::test_eligible_sets_at_the_lane_edges")),
    Mutant("unfinished-run-best-generation-zero", _BENCH,
           "    best_generation: int = -1\n", "    best_generation: int = 0\n",
           ("tests/test_bench.py::test_a_run_without_a_trained_champion_has_no_best_generation",)),
    Mutant("report-json-error-unnamed", _BENCH,
           'raise ValueError(f"report.json: {exc}") from None',
           "raise ValueError(str(exc)) from None",
           ("tests/test_cli.py::test_bench_stats_reports_a_missing_csv_column",)),
    # an experiment names each algorithm once, and only known policies
    Mutant("experiment-allows-a-repeat", _BENCH,
           "            if name in self.algorithms[:k]:\n",
           "            if False:\n",
           (_REFUSED + "[bench-repeated-algorithm]",)),
    Mutant("experiment-allows-an-unknown-policy", _BENCH,
           "            check_policy_name(name)\n", "",
           (_REFUSED + "[bench-unknown-algorithm]",)),
    Mutant("config-allows-an-unknown-policy", _EVOLVE,
           "        check_policy_name(self.policy)\n", "",
           ("tests/test_evolve.py::test_config_validation",)),
    # no float setting is NaN or infinite, and no limit is negative
    Mutant("config-allows-a-non-finite-float", _MODEL,
           "return value if isfinite(value) else _MISFIT", "return value",
           (_REFUSED + "[gen-nan-tolerance]", _REFUSED + "[evolve-infinite-wall-limit]",
            _REFUSED + "[bench-nan-crossover]")),
    Mutant("spec-allows-a-negative-limit", _INSTGEN,
           "if not (value := getattr(self, key)) >= 0:", "if False:",
           (_REFUSED + "[gen-negative-tolerance]", _REFUSED + "[gen-negative-budget]")),
    Mutant("evolve-allows-a-negative-wall-limit", _EVOLVE,
           "if wall_limit is not None and not wall_limit >= 0:", "if False:",
           (_REFUSED + "[evolve-negative-wall-limit]", _REFUSED + "[bench-negative-wall-limit]")),
    # each bound a containment test, which NaN fails, reverted to `x < lo`
    *(Mutant(f"{case}-passes-nan", file, snippet, replacement, (f"{_NAN}[{case}]",))
      for case, file, snippet, replacement in (
          ("GenSpec-n_activities", _INSTGEN,
           "if not (self.n_activities >= 1 and self.n_modes >= 1 and self.n_resources >= 1):",
           "if self.n_activities < 1 or self.n_modes < 1 or self.n_resources < 1:"),
          ("GenSpec-move_budget", _INSTGEN, "if not (value := getattr(self, key)) >= 0:",
           "if (value := getattr(self, key)) < 0:"),
          ("GpConfig-max_generations", _EVOLVE, "if not self.max_generations >= 0:",
           "if self.max_generations < 0:"),
          ("GpConfig-crossover_prob", _EVOLVE,
           "if not (self.crossover_prob >= 0 and self.mutation_prob >= 0\n"
           "                and self.crossover_prob + self.mutation_prob <= 1):",
           "if min(self.crossover_prob, self.mutation_prob) < 0 \\\n"
           "                or self.crossover_prob + self.mutation_prob > 1:"),
          ("GpConfig-enumeration_limit", _EVOLVE, "if not self.enumeration_limit >= 1:",
           "if self.enumeration_limit < 1:"),
          ("KneeConfig-cap", _POLICY, "if not self.cap >= 1:", "if self.cap < 1:"),
          ("KneeConfig-group_size_hard_limit", _POLICY,
           "if not self.group_size_hard_limit >= 1:", "if self.group_size_hard_limit < 1:"),
          ("Scenario-n_train", _BENCH, "if not (self.n_train >= 1 and self.n_test >= 1):",
           "if self.n_train < 1 or self.n_test < 1:"),
          ("Experiment-n_runs", _BENCH,
           "if not (self.n_runs >= 1 and self.test_realizations >= 1):",
           "if self.n_runs < 1 or self.test_realizations < 1:"),
          ("build_policy-hard_limit", _POLICY, "if not limit >= 1:", "if limit < 1:"),
          ("evolve-wall_limit", _EVOLVE, "and not wall_limit >= 0:", "and wall_limit < 0:"),
      )),
)


def occurrences(mutant: Mutant) -> int:
    return (SRC / mutant.file).read_text().count(mutant.snippet)


def run(mutant: Mutant) -> str:
    """'killed', 'survived', 'timed out' or 'stale'."""
    if occurrences(mutant) != 1:
        return "stale"
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / mutant.file
        path.write_text(path.read_text().replace(mutant.snippet, mutant.replacement))
        # `pythonpath = ["src"]` in pyproject.toml would put the repo's own
        # src/ first, so the copy goes first by `-o pythonpath`
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 "-o", f"pythonpath={src}", *mutant.tests],
                cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timed out"
    return {0: "survived", 1: "killed"}.get(done.returncode, "stale")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = ap.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        ap.error(f"unknown mutant(s): {', '.join(unknown)}")
    counts = {"killed": 0, "survived": 0, "timed out": 0, "stale": 0}
    for m in [known[n] for n in args.names] or MUTANTS:
        verdict = run(m)
        counts[verdict] += 1
        print(f"{verdict:<10}{m.name}", flush=True)
    print(", ".join(f"{n} {k}" for k, n in counts.items()))
    return 0 if counts["killed"] == sum(counts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

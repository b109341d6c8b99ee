"""Tracing from outside the program: wrappers over kneegp's module globals.

Every call between kneegp modules goes through a module-level name (`solve`
calls `eligible_set` as `kneegp.sim.eligible_set`, `evolve` calls
`kneegp.evolve.evaluate_rules`, ...), so replacing those names with timing
wrappers sees each layer without editing the package. `Tracer.install`
records what it replaced and `Tracer.restore` puts every original back.

Each wrapped call is a frame. A frame's self time is its duration minus the
durations of the wrapped calls made inside it, so the self times of all
frames below a root add up to the root's duration. Hot leaf calls (about
300,000 per pass) are only aggregated into call counts and self time;
coarse frames (pass, run_one, evolve, evaluate_rules, solve) also keep one
span each, held in memory until the run writes them out.
"""
from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict

from kneegp.policy import KneeConfig

# (module, global name, layer name, keeps a span)
PATCHES = (
    ("kneegp.bench", "run_one", "bench.run_one", True),
    ("kneegp.bench", "evolve", "evolve.evolve", True),
    ("kneegp.bench", "evaluate_on_tests", "bench.evaluate_on_tests", True),
    ("kneegp.evolve", "evaluate_rules", "evolve.evaluate_rules", True),
    ("kneegp.sim", "solve", "sim.solve", True),
    ("kneegp.evolve", "solve", "sim.solve", True),
    ("kneegp.bench", "solve", "sim.solve", True),
    ("kneegp.sim", "sample_durations", "sim.sample_durations", False),
    ("kneegp.evolve", "sample_durations", "sim.sample_durations", False),
    ("kneegp.bench", "sample_durations", "sim.sample_durations", False),
    ("kneegp.policy", "build_policy", "policy.build_policy", False),
    ("kneegp.evolve", "build_policy", "policy.build_policy", False),
    ("kneegp.bench", "build_policy", "policy.build_policy", False),
    ("kneegp.sim", "eligible_set", "sim.eligible_set", False),
    ("kneegp.policy", "sequential_decide", "policy.sequential_decide", False),
    ("kneegp.policy", "knee_group_decide", "policy.knee_group_decide", False),
    ("kneegp.policy", "full_enumeration_decide", "policy.full_enumeration_decide", False),
    ("kneegp.policy", "eval_pair_priority", "rules.eval_pair_priority", False),
    ("kneegp.policy", "eval_group_priority", "rules.eval_group_priority", False),
    ("kneegp.instgen", "generate_instance", "instgen.generate_instance", False),
)


class Tracer:
    """Call counts, self times, spans and decision counters of one run."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.decide_ns = array("q")
        # each open frame: [time covered by child frames, span id]
        self._stack: list[list[int]] = [[0, 0]]
        self._saved: list[tuple[object, str, object]] = []
        self._rule_keys: set = set()
        self.rule_repeats = 0
        self.decisions = 0
        self.eligible_sum = 0
        self.filtered_sum = 0
        self.cut_sum = 0.0
        self.enum_candidates = 0

    # -- frames -------------------------------------------------------------

    def wrap(self, name: str, fn, span: bool = False, after=None,
             durations: array | None = None):
        """`fn` wrapped as a frame named `name`.

        `after(result, args)` runs once the frame is closed and returns what
        the wrapper returns; `durations` collects each call's duration.
        """
        calls, self_ns, stack, spans = self.calls, self.self_ns, self._stack, self.spans
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0, len(spans) + 1 if span else parent[1]]
            if span:
                spans.append(None)  # reserve the id; filled in on exit
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                parent[0] += dt
                calls[name] += 1
                self_ns[name] += dt - frame[0]
                if span:
                    spans[frame[1] - 1] = (frame[1], parent[1], name, t0, t1)
                if durations is not None:
                    durations.append(dt)
            return result if after is None else after(result, args)

        wrapper.__wrapped__ = fn
        return wrapper

    def frame(self, name: str, fn, *args, span: bool = False):
        """Call `fn(*args)` inside a frame opened by the benchmark itself."""
        return self.wrap(name, fn, span=span)(*args)

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        """Replace every name in PATCHES with its wrapper."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        hooks = {
            "sim.solve": self._after_solve,
            "policy.build_policy": self._after_build_policy,
            "policy.knee_group_decide": self._after_knee,
            "policy.full_enumeration_decide": self._after_enumeration,
            "evolve.evaluate_rules": self._after_evaluate_rules,
        }
        try:
            for modname, attr, name, span in PATCHES:
                mod = importlib.import_module(modname)
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(name, original, span, hooks.get(name)))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put back every original that `install` replaced."""
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- hooks that read results --------------------------------------------

    def _after_solve(self, res, args):
        for d in res.decisions:
            self.decisions += 1
            self.eligible_sum += d.eligible_size
            self.filtered_sum += d.filtered_size
            if d.eligible_size > 0:
                self.cut_sum += 1 - d.filtered_size / d.eligible_size
        return res

    def _after_build_policy(self, pol, args):
        return _DecideProbe(self.wrap("policy.decide", pol.decide,
                                      durations=self.decide_ns))

    def _after_knee(self, gd, args):
        cfg = args[3] if len(args) > 3 else KneeConfig()
        # the same width knee_group_decide enumerates; the count is computed
        width = min(gd.filtered_size, cfg.cap,
                    max(1, (cfg.group_size_hard_limit + 1).bit_length() - 1))
        self.enum_candidates += (1 << width) - 1
        return gd

    def _after_enumeration(self, ed, args):
        self.enum_candidates += ed.count
        return ed

    def _after_evaluate_rules(self, fitness, args):
        rules, _, tables = args[:3]
        key = (rules, tuple(t.seed for t in tables))
        if key in self._rule_keys:
            self.rule_repeats += 1
        else:
            self._rule_keys.add(key)
        return fitness


class _DecideProbe:
    """Stands in for the policy object build_policy returns."""

    def __init__(self, decide):
        self.decide = decide

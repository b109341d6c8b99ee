from __future__ import annotations

import json
import random
import time

import pytest

from kneegp.model import (
    Activity,
    Mode,
    Schedule,
    ScheduleEntry,
    StructuralError,
    build_instance,
    byte_sum,
    byte_tables,
    instance_from_dict,
    instance_to_dict,
    schedule_to_dict,
    _resource_violation,
    validate_schedule,
)

from conftest import (_masked_sum, chain_instance, demo_instance, make_schedule,
                      parallel_instance, random_instance, schedule_from_dict)


def test_demo_lower_bound(demo):
    assert demo.lower_bound == 12
    assert demo.lower_bound == 12


def _forward_pass_bound(inst) -> int:
    """Reference critical-path bound: the forward pass from the source."""
    ect = [0] * inst.n_activities
    for i in inst.analysis.topo_order:
        start = max((ect[j] for j in inst.activities[i].predecessors), default=0)
        ect[i] = start + min(m.expected for m in inst.activities[i].modes)
    return ect[inst.dummy_end]


def test_lower_bound_equals_the_forward_pass():
    rng = random.Random(17)
    for _ in range(200):
        inst = random_instance(rng, n=rng.randint(1, 14), edge_prob=rng.random(),
                               zero_prob=0.2)
        bound = inst.lower_bound
        assert bound == inst.lower_bound == _forward_pass_bound(inst)
        assert type(bound) is int
        again = instance_from_dict(json.loads(json.dumps(instance_to_dict(inst))))
        assert again.lower_bound == bound


def test_chain_lower_bound():
    assert chain_instance([7, 7, 7]).lower_bound == 21


def test_dummy_only_lower_bound():
    inst = build_instance(
        [
            Activity(0, frozenset(), frozenset({1}), (Mode(0, 0, 0, (0,)),)),
            Activity(1, frozenset({0}), frozenset(), (Mode(0, 0, 0, (0,)),)),
        ],
        [5],
    )
    assert inst.lower_bound == 0


# the two hand-checked schedules for the demo project
SEQ_20 = {1: (0, 0, 5), 2: (0, 5, 4), 3: (0, 9, 4), 4: (0, 13, 4), 5: (0, 17, 3)}
GRP_17 = {1: (1, 0, 6), 2: (1, 0, 7), 3: (0, 7, 4), 4: (1, 11, 6), 5: (1, 11, 5)}


def _sched(table) -> Schedule:
    return make_schedule({i: ScheduleEntry(*e) for i, e in table.items()})


def test_validate_sequential_schedule(demo):
    s = _sched(SEQ_20)
    assert s.makespan == 20
    assert validate_schedule(demo, s).ok


def test_validate_group_schedule(demo):
    s = _sched(GRP_17)
    assert s.makespan == 17
    assert validate_schedule(demo, s).ok


def test_validate_flags_resource_overload(demo):
    # activity 3 (demand 9 in mode 0) pulled back to start alongside
    # activity 1 in mode 0 (demand 10): 19 > 12 on the single resource
    bad = dict(GRP_17)
    bad[1] = (0, 0, 5)
    bad[3] = (0, 0, 4)
    res = validate_schedule(demo, _sched(bad))
    assert not res.ok
    kinds = {v.kind for v in res.violations}
    assert "resource" in kinds
    rv = next(v for v in res.violations if v.kind == "resource")
    assert rv.resource == 0 and rv.time == 0


def test_validate_flags_precedence(demo):
    bad = dict(SEQ_20)
    bad[3] = (0, 2, 4)  # starts before predecessor 1 finishes at 5
    res = validate_schedule(demo, _sched(bad))
    assert any(v.kind == "precedence" and v.activity == 3 for v in res.violations)


def test_validate_flags_makespan_mismatch(demo):
    s = Schedule({i: ScheduleEntry(*e) for i, e in SEQ_20.items()}, 99)
    res = validate_schedule(demo, s)
    assert any(v.kind == "makespan" for v in res.violations)


def _dense_resource_violations(inst, sched):
    """Reference resource check: a usage list over every tick to the horizon."""
    out = []
    horizon = max((e.start + e.duration for e in sched.entries.values()), default=0)
    for r in range(inst.n_resources):
        delta = [0] * (horizon + 1)
        for i, e in sched.entries.items():
            d = inst.activities[i].modes[e.mode].demand[r]
            if d and e.duration:
                delta[e.start] += d
                delta[e.start + e.duration] -= d
        usage, over_from = 0, None
        cap = inst.capacities[r]
        for t in range(horizon + 1):
            usage += delta[t]
            if usage > cap and over_from is None:
                over_from = t
            elif usage <= cap and over_from is not None:
                out.append(_resource_violation(inst, sched, r, over_from, t))
                over_from = None
        if over_from is not None:
            out.append(_resource_violation(inst, sched, r, over_from, horizon))
    return out


def test_resource_sweep_matches_the_per_tick_reference():
    rng = random.Random(2024)
    overloaded = 0
    for _ in range(300):
        inst = random_instance(rng, n=rng.randint(1, 9), n_modes=2,
                               n_resources=rng.randint(1, 3), capacity=10,
                               max_demand=8)
        shift = rng.choice([0, 0, 3, 1000])
        entries = {}
        for i in inst.non_dummy_ids():
            m = rng.randrange(2)
            d = rng.choice([0, inst.activities[i].modes[m].expected])
            entries[i] = ScheduleEntry(m, shift + rng.randint(0, 6), d)
        sched = make_schedule(entries)
        got = validate_schedule(inst, sched).violations
        want = _dense_resource_violations(inst, sched)
        assert [v for v in got if v.kind == "resource"] == want
        overloaded += bool(want)
    assert overloaded > 100


def test_validation_cost_does_not_grow_with_start_times(demo):
    shift = 10 ** 12
    ok = {i: (m, s + shift, d) for i, (m, s, d) in SEQ_20.items()}
    bad = dict(GRP_17)
    bad[1] = (0, 0, 5)
    bad[3] = (0, 0, 4)
    bad = {i: (m, s + shift, d) for i, (m, s, d) in bad.items()}
    tick = time.perf_counter()
    assert validate_schedule(demo, _sched(ok)).ok
    res = validate_schedule(demo, _sched(bad))
    assert time.perf_counter() - tick < 1.0
    rv = [v for v in res.violations if v.kind == "resource"]
    assert [(v.time, v.resource) for v in rv] == [(shift, 0)]


def test_validate_structural_errors(demo):
    with pytest.raises(StructuralError):
        validate_schedule(demo, _sched({1: (0, 0, 5)}))  # missing activities
    full = dict(SEQ_20)
    full[1] = (7, 0, 5)  # no such mode
    with pytest.raises(StructuralError):
        validate_schedule(demo, _sched(full))
    extra = dict(SEQ_20)
    extra[6] = (0, 0, 0)  # dummy sink in the entries
    with pytest.raises(StructuralError):
        validate_schedule(demo, _sched(extra))


def test_validate_refuses_a_negative_start(demo):
    table = dict(SEQ_20)
    table[1] = (0, -1, 5)
    with pytest.raises(StructuralError, match="activity 1: negative start or duration"):
        validate_schedule(demo, _sched(table))


def test_build_rejects_cycle():
    with pytest.raises(StructuralError):
        build_instance(
            [
                Activity(0, frozenset(), frozenset({1}), (Mode(0, 0, 0, (0,)),)),
                Activity(1, frozenset({0, 2}), frozenset({2, 3}), (Mode(2, 2, 2, (1,)),)),
                Activity(2, frozenset({1}), frozenset({1, 3}), (Mode(2, 2, 2, (1,)),)),
                Activity(3, frozenset({1, 2}), frozenset(), (Mode(0, 0, 0, (0,)),)),
            ],
            [2],
        )


def test_build_rejects_oversized_mode():
    with pytest.raises(StructuralError):
        chain_instance([3], demand=5, capacity=4)


def test_build_rejects_an_instance_without_resources():
    # no terminal over a demand vector has a value without a resource
    idle = (Mode(0, 0, 0, ()),)
    acts = [Activity(0, frozenset(), frozenset({1}), idle),
            Activity(1, frozenset({0}), frozenset({2}), (Mode(3, 2, 4, ()),)),
            Activity(2, frozenset({1}), frozenset(), idle)]
    with pytest.raises(StructuralError, match="at least one resource"):
        build_instance(acts, [])


_IDLE = (Mode(0, 0, 0, (0,)),)
_WORK = (Mode(2, 2, 2, (1,)),)


def _act(i, preds=(), succs=(), modes=_WORK):
    return Activity(i, frozenset(preds), frozenset(succs), modes)


# the chain 0 -> 1 -> 2 with one resource of capacity 2, each edit breaking it
_CHAIN = [_act(0, (), {1}, _IDLE), _act(1, {0}, {2}), _act(2, {1}, (), _IDLE)]


@pytest.mark.parametrize("acts, caps, message", [
    (_CHAIN[:1], [2], "an instance needs at least the two dummy activities"),
    ([_act(0, (), {2}, _IDLE), _act(2, {0}, {3}), _act(3, {2}, (), _IDLE)], [2],
     "activity ids must be dense and 0-based"),
    (_CHAIN, [-1], "negative capacity"),
    ([_CHAIN[0], _act(1, {0}, {2}, ()), _CHAIN[2]], [2], "activity 1 has no modes"),
    ([_CHAIN[0], _act(1, {0}, {2}, (Mode(2, 2, 2, (1, 1)),)), _CHAIN[2]], [2],
     "activity 1: demand length 2 != |R| 1"),
    ([_CHAIN[0], _act(1, {0}, {2, 5}), _CHAIN[2]], [2], "activity 1 references unknown id 5"),
    ([_act(0, (), (), _IDLE), *_CHAIN[1:]], [2], "asymmetric edge 0 -> 1"),
    ([*_CHAIN[:2], _act(2, (), (), _IDLE)], [2], "asymmetric edge 1 -> 2"),
    ([_act(0, (), {1}, (Mode(1, 1, 1, (0,)),)), *_CHAIN[1:]], [2],
     "dummy activity 0 must have one idle mode"),
    ([_act(0, {2}, {1}, _IDLE), _CHAIN[1], _act(2, {1}, {0}, _IDLE)], [2],
     "dummy source/sink must be extremal"),
    ([_act(0, (), {1}, _IDLE), _act(1, {0}, {3}), _act(2), _act(3, {1}, (), _IDLE)], [2],
     "activity 2 is disconnected from the dummies"),
], ids=["one-activity", "sparse-ids", "negative-capacity", "no-modes", "demand-length",
        "unknown-id", "asymmetric-from-predecessor", "asymmetric-from-successor",
        "busy-dummy", "dummy-with-predecessor", "disconnected"])
def test_build_refuses_a_malformed_instance(acts, caps, message):
    with pytest.raises(StructuralError) as exc:
        build_instance(acts, caps)
    assert str(exc.value) == message


def test_mode_refuses_a_negative_demand():
    with pytest.raises(StructuralError, match="negative resource demand"):
        Mode(3, 2, 4, (-1,))


def test_mode_duration_ordering_enforced():
    with pytest.raises(StructuralError):
        Mode(5, 6, 7, (1,))


@pytest.mark.parametrize("args, field", [
    ((5.0, 4, 6, (1,)), "expected"),
    ((5, True, 6, (1,)), "min_duration"),
    ((5, 4, "6", (1,)), "max_duration"),
    ((5, 4, 6, (1.5,)), "demand"),
    ((5, 4, 6, (1, False)), "demand"),
])
def test_mode_refuses_a_value_that_is_not_an_integer(args, field):
    # a float demand would otherwise fail only when packed, at the first
    # group decision
    with pytest.raises(StructuralError, match=f"mode {field} must"):
        Mode(*args)


@pytest.mark.parametrize("caps", [[2.7], ["3"], [True], [2, 3.0]])
def test_build_refuses_a_capacity_that_is_not_an_integer(caps):
    mode = (Mode(2, 2, 2, (1,) * len(caps)),)
    idle = (Mode(0, 0, 0, (0,) * len(caps)),)
    acts = [Activity(0, frozenset(), frozenset({1}), idle),
            Activity(1, frozenset({0}), frozenset({2}), mode),
            Activity(2, frozenset({1}), frozenset(), idle)]
    with pytest.raises(StructuralError, match="capacities must be integers"):
        build_instance(acts, caps)


@pytest.mark.parametrize("bad_id", [True, 1.0, "1"])
def test_build_refuses_an_activity_id_that_is_not_an_integer(bad_id):
    # True and 1.0 equal 1, so without the check True built and solved, and
    # 1.0 died inside the build with a TypeError
    idle = (Mode(0, 0, 0, (0,)),)
    acts = [Activity(0, frozenset(), frozenset({1}), idle),
            Activity(bad_id, frozenset({0}), frozenset({2}), (Mode(2, 2, 2, (1,)),)),
            Activity(2, frozenset({1}), frozenset(), idle)]
    with pytest.raises(StructuralError,
                       match=f"activity ids must be integers, not {bad_id!r}"):
        build_instance(acts, [1])


def test_instance_json_roundtrip(demo):
    blob = json.dumps(instance_to_dict(demo))
    again = instance_from_dict(json.loads(blob))
    assert again == demo
    assert again.lower_bound == 12


def test_load_rejects_wrong_lower_bound(demo):
    data = instance_to_dict(demo)
    data["lower_bound"] = 13
    with pytest.raises(StructuralError):
        instance_from_dict(data)


def _set_predecessors(data, value):
    data["activities"][3]["predecessors"] = value


def _set_demand(data, value):
    data["activities"][3]["modes"][0]["demand"] = value


def _set_capacities(data, value):
    data["capacities"] = value


def _set_id(data, value):
    data["activities"][2]["id"] = value


def _set_expected(data, value):
    data["activities"][3]["modes"][0]["expected"] = value


def _set_max(data, value):
    data["activities"][3]["modes"][1]["max"] = value


def _set_lower_bound(data, value):
    data["lower_bound"] = value


def _set_metadata(data, value):
    data["metadata"] = value


@pytest.mark.parametrize("edit, value, message", [
    (_set_predecessors, "10", "activity 3 predecessors must be a list of integers, not '10'"),
    (_set_predecessors, ["1"], "activity 3 predecessors must be a list of integers, not ['1']"),
    (_set_predecessors, 1, "activity 3 predecessors must be a list of integers, not 1"),
    (_set_predecessors, [1, 10], "activity 3 references unknown id 10"),
    (_set_demand, "9", "activity 3 demand must be a list of integers, not '9'"),
    (_set_demand, [9.5], "activity 3 demand must be a list of integers, not [9.5]"),
    (_set_demand, [True], "activity 3 demand must be a list of integers, not [True]"),
    (_set_capacities, "12", "capacities must be a list of integers, not '12'"),
    (_set_capacities, [12.0], "capacities must be a list of integers, not [12.0]"),
    (_set_expected, 5.9, "activity 3 expected must be an integer, not 5.9"),
    (_set_id, "2", "activities[2] id must be an integer, not '2'"),
    (_set_id, True, "activities[2] id must be an integer, not True"),
    (_set_max, True, "activity 3 max must be an integer, not True"),
    (_set_lower_bound, 12.0, "lower_bound must be an integer, not 12.0"),
    (_set_metadata, 5, "metadata must be an object, not 5"),
    (_set_metadata, [["a", 1]], "metadata must be an object, not [['a', 1]]"),
], ids=["preds-string", "preds-string-item", "preds-int", "preds-unknown", "demand-string",
        "demand-float-item", "demand-bool-item", "caps-string", "caps-float-item",
        "expected-float", "id-string", "id-bool", "max-bool", "lower-bound-float",
        "metadata-int", "metadata-pairs"])
def test_load_rejects_a_value_that_is_not_a_list_of_integers(demo, edit, value, message):
    # a string is a sequence too: "10" would read as the ids {1, 0}; the
    # scalar fields must be integers: int() would read 5.9 as 5 and "2" as 2
    data = json.loads(json.dumps(instance_to_dict(demo)))
    edit(data, value)
    with pytest.raises(StructuralError) as exc:
        instance_from_dict(data)
    assert str(exc.value) == message


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 122])
def test_byte_sum_equals_the_bit_by_bit_sum(n):
    rng = random.Random(n)
    values = [rng.choice([0, 1, 7, 10, 255, 1000]) for _ in range(n)]
    tables = byte_tables(values)
    assert len(tables) == (n + 7) // 8
    masks = [0, (1 << n) - 1, 1 << (n - 1)] + [rng.getrandbits(n) for _ in range(200)]
    for mask in masks:
        assert byte_sum(tables, mask) == _masked_sum(values, mask), mask


@pytest.mark.parametrize("n_res", [1, 8])
def test_unpack_inverts_pack_free(n_res):
    """Every availability comes back from its packed form, guard bits
    stripped, at capacities 0, 1, 2^k - 1 and 2^k, equal on every resource
    or mixed."""
    rng = random.Random(n_res)
    edges = [0, 1] + [c for k in range(1, 10) for c in (2 ** k - 1, 2 ** k)]
    idle = Mode(0, 0, 0, (0,) * n_res)
    for k in range(60):
        caps = ((edges[k % len(edges)],) * n_res if k < len(edges)
                else tuple(rng.choice(edges) for _ in range(n_res)))
        inst = build_instance([Activity(0, frozenset(), frozenset({1}), (idle,)),
                               Activity(1, frozenset({0}), frozenset(), (idle,))], caps)
        ana = inst.analysis
        draws = [tuple(rng.randint(0, c) for c in caps) for _ in range(20)]
        for avail in [(0,) * n_res, caps, *draws]:
            assert ana.unpack(ana.pack_free(avail)) == tuple(avail), (caps, avail)


@pytest.mark.parametrize("n_res", [1, 8])
@pytest.mark.parametrize("k", [7, 8, 15, 16, 31, 32, 63, 64])
@pytest.mark.parametrize("below", [1, 0], ids=["2^k-1", "2^k"])
def test_split_returns_the_lanes_of_a_wide_packed_vector(n_res, k, below):
    """`split` of a wide-packed vector gives the vector's values in
    resource order, at capacity 2^k - 1 or 2^k: the lane width is the first
    of 8, 16, 32, 64 or 128 bits that holds it, so both paths of `split`
    run, bytes at 8 bits and shifts above. So does a sum of two vectors
    that fit the capacity together, and the difference of one vector and a
    smaller one."""
    cap = 2 ** k - below
    rng = random.Random(f"{n_res}-{cap}")
    idle = Mode(0, 0, 0, (0,) * n_res)
    inst = build_instance([Activity(0, frozenset(), frozenset({1}), (idle,)),
                           Activity(1, frozenset({0}), frozenset(), (idle,))], (cap,) * n_res)
    ana = inst.analysis
    assert ana.wide_width == next(w for w in (8, 16, 32, 64, 128) if cap < 2 ** w)
    pack, split = ana.pack_wide, ana.split
    for _ in range(40):
        a = [rng.choice([0, 1, cap, rng.randint(0, cap)]) for _ in range(n_res)]
        b = [rng.choice([0, cap - x, rng.randint(0, cap - x)]) for x in a]
        total = [x + y for x, y in zip(a, b)]
        assert list(split(pack(a))) == a
        assert list(split(pack(a) + pack(b))) == total
        assert list(split(pack(total) - pack(b))) == a


def test_schedule_json_roundtrip():
    s = _sched(GRP_17)
    assert schedule_from_dict(schedule_to_dict(s)) == s


def test_relabeling_preserves_lower_bound():
    # reversing the internal ids of an antichain changes nothing structural
    a = parallel_instance([3, 5, 2])
    b = parallel_instance([2, 5, 3])
    assert a.lower_bound == b.lower_bound == 5


def test_random_instances_validate_own_ess():
    # earliest-start schedules under huge capacity are always feasible
    rng = random.Random(7)
    for _ in range(25):
        inst = random_instance(rng, n=rng.randint(3, 10), capacity=60, max_demand=5)
        ana = inst.analysis
        ect = {0: 0}
        entries = {}
        for i in ana.topo_order:
            if i in (0, inst.dummy_end):
                continue
            start = max(ect[j] for j in inst.activities[i].predecessors)
            d = inst.activities[i].modes[0].expected
            ect[i] = start + d
            entries[i] = ScheduleEntry(0, start, d)
        res = validate_schedule(inst, make_schedule(entries))
        assert res.ok, res.violations
        assert make_schedule(entries).makespan >= inst.lower_bound


def test_makespan_never_below_bound_on_chains():
    rng = random.Random(11)
    for _ in range(20):
        durs = [rng.randint(1, 9) for _ in range(rng.randint(1, 6))]
        inst = chain_instance(durs)
        start, entries = 0, {}
        for i, d in enumerate(durs, start=1):
            entries[i] = ScheduleEntry(0, start, d)
            start += d + rng.randint(0, 2)  # arbitrary idle gaps
        s = make_schedule(entries)
        assert validate_schedule(inst, s).ok
        assert s.makespan >= inst.lower_bound

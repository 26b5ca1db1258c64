"""Tests of the benchmark itself: seeded generators, oracle, spans, worker.

Run with: python3 -m pytest perfbench -q
"""

import itertools
import time

import families
import oracle
import run
import spans

# dgal's answer for diag(1/(2t), 1/(3t)) at degree 3, trimmed to the keys
# the oracle reads
DIAG23 = """n: 2
finite: yes
dimension: 0
components: 6
order: 6
point: [1, 0; 0, 1]
point: [1, 0; 0, g]
point: [-1, 0; 0, g]
point: [-1, 0; 0, 1]
point: [-1, 0; 0, (-g - 1)]
point: [1, 0; 0, (-g - 1)]
component_generator: x_1_1 + -1
component_generator: x_1_2
component_generator: x_2_1
component_generator: x_2_2 + -1
proto_generator: x_1_2
proto_generator: x_2_1
rigorous: no
sandwich_checked: yes
order_used: 31
"""

AIRY = """n: 2
finite: no
dimension: 3
components: 1
component_generator: x_1_1*x_2_2 + -1*x_1_2*x_2_1 + -1
proto_generator: x_1_1*x_2_2 + -1*x_1_2*x_2_1 + -1
rigorous: no
sandwich_checked: yes
"""


def _take(workload, seed, count=24):
    instances = itertools.chain.from_iterable(families.groups(workload, seed))
    return list(itertools.islice(instances, count))


def test_generators_are_deterministic_per_seed():
    for workload in families.WORKLOADS:
        first = _take(workload, 5)
        assert first == _take(workload, 5)
        assert [i.expect for i in first] == [i.expect for i in _take(workload, 5)]
        assert first != _take(workload, 6)


def test_sequences_open_with_the_readme_examples():
    examples = {
        "sl2-airy": ["airy(1,0)"],
        "finite-radical": ["diag(1/2)/t", "diag(1)/t", "diag(1/2,1/3)/t"],
        "torus-characters": ["rotation(1)@0", "exp(1)@0"],
    }
    for workload, names in examples.items():
        # the first group is kept out of the timed metrics
        first = next(families.groups(workload, 1))
        assert [i.name for i in first] == names


def test_radical_expectation_is_the_lcm_of_reduced_denominators():
    assert families.radical(["2/4", "1/3"], 3).expect["order"] == 6
    assert families.radical(["3/3", "2/3"], 3).expect["order"] == 3
    assert families.radical([1], 1).expect["order"] == 1


def test_oracle_accepts_correct_documents():
    diag23 = families.radical(["1/2", "1/3"], 3)
    assert oracle.check(diag23.expect, 0, DIAG23) is None
    assert oracle.check(families.airy(1, 0).expect, 0, AIRY) is None


def test_oracle_rejects_doctored_documents():
    expect = families.radical(["1/2", "1/3"], 3).expect
    assert "order" in oracle.check(expect, 0, DIAG23.replace(
        "order: 6", "order: 5"))
    assert oracle.check(expect, 0, DIAG23.replace(
        "sandwich_checked: yes", "sandwich_checked: no"))
    assert oracle.check(expect, 0, DIAG23.replace(
        "component_generator: x_1_2\n", "component_generator: x_1_2 + 1\n"))
    assert oracle.check(expect, 2, DIAG23)
    sl2 = families.airy(1, 0).expect
    assert oracle.check(sl2, 0, AIRY.replace("dimension: 3", "dimension: 4"))
    assert oracle.check(sl2, 0, AIRY.replace(
        "+ -1*x_1_2*x_2_1 + -1", "+ -1*x_1_2*x_2_1 + -2"))
    assert oracle.check(families.rotation(1, 0).expect, 0, AIRY)


def test_spans_busy_and_self_time():
    rec = spans.Recorder()

    def leaf():
        time.sleep(0.01)

    def outer(depth):
        if depth:
            wrapped_outer(depth - 1)
        wrapped_leaf()

    wrapped_leaf = rec.wrap("leaf", leaf)
    wrapped_outer = rec.wrap("outer", outer)
    wrapped_outer(1)
    calls = {name: 0 for name in ("leaf", "outer")}
    for span in rec.spans:
        calls[span[0]] += 1
    assert calls == {"leaf": 2, "outer": 2}
    total = rec.spans[0][3] - rec.spans[0][2]
    leaf_time = sum(s[3] - s[2] for s in rec.spans if s[0] == "leaf")
    # the recursive call of outer is not counted twice in busy time
    summary = rec.summary()
    assert abs(summary["outer.busy_s"] - total) < 1e-9
    assert abs(summary["outer.self_s"] - (total - leaf_time)) < 1e-9
    assert abs(summary["leaf.self_s"] - leaf_time) < 1e-9


def test_worker_solves_and_checks_one_instance():
    with run.workdir():
        inst = families.radical([1], 1)
        deadline = time.monotonic() + 120
        plain = run.solve(inst, False, deadline)
        traced = run.solve(inst, True, deadline)
    assert plain["error"] is None and traced["error"] is None
    assert plain["setup_s"] > 0 and plain["solve_s"] > 0
    assert plain["ref_s"] > 0
    assert plain["solve_s"] == plain["wall_solve_s"] * plain["scale"]
    assert traced["layers"]["relations.relation_ideal.calls"] == 1

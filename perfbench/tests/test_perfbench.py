"""Tests of the benchmark itself: inputs, checks, tracing arithmetic.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import math
from collections import Counter
from pathlib import Path

import pytest

from perfbench import checks, gen, tracing
from perfbench.run import END_TO_END, per_layer_specs
from structsum.corpus import load_dataset

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("shape", sorted(gen.SHAPES))
def test_generator_is_deterministic(tmp_path, shape):
    a = gen.write_corpus(tmp_path / "a.jsonl", shape, 3, seed=7).read_bytes()
    b = gen.write_corpus(tmp_path / "b.jsonl", shape, 3, seed=7).read_bytes()
    c = gen.write_corpus(tmp_path / "c.jsonl", shape, 3, seed=8).read_bytes()
    assert a == b
    assert a != c


def test_evaluation_sets_do_not_depend_on_the_seed(tmp_path):
    a = gen.write_corpus(tmp_path / "a.jsonl", "small", 2, seed=7, eval_sets=3)
    b = gen.write_corpus(tmp_path / "b.jsonl", "small", 2, seed=8, eval_sets=3)
    lines_a = a.read_text(encoding="utf-8").splitlines()
    lines_b = b.read_text(encoding="utf-8").splitlines()
    assert len(lines_a) == 5
    assert lines_a[:3] == lines_b[:3]
    assert lines_a[3:] != lines_b[3:]
    seeded = gen.write_corpus(tmp_path / "c.jsonl", "small", 2, seed=7).read_text(encoding="utf-8")
    assert lines_a[3:] == seeded.splitlines()


@pytest.mark.parametrize("shape", sorted(gen.SHAPES))
def test_generated_sets_load_with_their_shape(tmp_path, shape):
    spec = gen.SHAPES[shape]
    data = load_dataset(gen.write_corpus(tmp_path / "c.jsonl", shape, 3, seed=3))
    assert len(data) == 3
    for x, Y in data:
        assert x.num_sentences == spec.sentences
        assert len(Y.references) == spec.references
        assert x.budget_bytes == spec.budget_bytes
        assert all(spec.min_words <= len(s.tokens) <= spec.max_words for s in x.sentences)


COSTS = [10, 20, 30, 40]


def test_summary_check_accepts_a_valid_summary():
    assert checks.summary_violations("s", COSTS, (3, 0), 50, budget=50) == []


def test_summary_check_rejects_over_budget():
    [msg] = checks.summary_violations("s", COSTS, (2, 3), 70, budget=60)
    assert "exceeds budget" in msg


def test_summary_check_rejects_duplicate_ids():
    out = checks.summary_violations("s", COSTS, (1, 1), 40, budget=100)
    assert any("duplicate" in m for m in out)


def test_summary_check_rejects_bad_ids_and_wrong_cost():
    assert any("out of range" in m for m in checks.summary_violations("s", COSTS, (4,), 0, 100))
    assert any("total cost" in m for m in checks.summary_violations("s", COSTS, (0,), 11, 100))


def test_weight_check_rejects_nan_and_inf():
    assert checks.weight_violations("w", [0.0, 1.5, -2.0]) == []
    assert checks.weight_violations("w", [0.0, math.nan])
    assert checks.weight_violations("w", [math.inf])


def test_f_check_range():
    assert checks.f_violations("f", 0.0) == []
    assert checks.f_violations("f", 1.0) == []
    assert checks.f_violations("f", 1.0000001)
    assert checks.f_violations("f", -0.1)
    assert checks.f_violations("f", math.nan)


def test_dual_check_rejects_a_decrease():
    assert checks.dual_violations("d", [0.0, 0.5, 0.5, 0.7]) == []
    assert checks.dual_violations("d", [0.0, 0.5, 0.4])


def test_digest_depends_on_content_and_order():
    def digest(items):
        d = checks.Digest()
        for label, data in items:
            d.add(label, data)
        return d.hexdigest()

    assert digest([("a", "1"), ("b", "2")]) == digest([("a", "1"), ("b", "2")])
    assert digest([("a", "1"), ("b", "2")]) != digest([("b", "2"), ("a", "1")])
    assert digest([("a", "1")]) != digest([("a", "2")])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_spans():
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    # op [0, 10] holds a [1, 6] (which holds b [2, 4]) and b [7, 9]
    op = tr.begin("op")
    clock.now = 1
    a = tr.begin("a")
    clock.now = 2
    b1 = tr.begin("b")
    clock.now = 4
    tr.end(b1)
    clock.now = 6
    tr.end(a)
    clock.now = 7
    b2 = tr.begin("b")
    clock.now = 9
    tr.end(b2)
    clock.now = 10
    tr.end(op)
    stats = tr.stats()
    assert stats["op"].busy_s == 10 and stats["op"].self_s == 10 - 5 - 2
    assert stats["a"].busy_s == 5 and stats["a"].self_s == 3
    assert stats["b"].calls == 2 and stats["b"].busy_s == 4 and stats["b"].self_s == 4
    assert sum(s.self_s for s in stats.values()) == 10


def test_recursive_layer_counts_busy_time_once():
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    outer = tr.begin("f")
    clock.now = 1
    inner = tr.begin("f")
    clock.now = 3
    tr.end(inner)
    clock.now = 4
    tr.end(outer)
    s = tr.stats()["f"]
    assert (s.calls, s.busy_s, s.self_s) == (2, 4, 4)


def test_spans_must_close_in_order():
    tr = tracing.Tracer(FakeClock())
    first = tr.begin("a")
    tr.begin("b")
    with pytest.raises(RuntimeError):
        tr.end(first)


def test_absent_boundary_is_reported_not_raised():
    import structsum.learner as learner

    original = learner.predict
    layers = (
        tracing.Layer("gone", ("structsum.learner:_NoSuchBank.__init__",), "nothing"),
        tracing.Layer("gone.module", ("structsum.no_such_module:f",), "nothing"),
        tracing.Layer("learner.predict", ("structsum.learner:predict",), "op_s_p50"),
    )
    installed = tracing.Installation(tracing.Tracer(), layers)
    try:
        assert installed.absent_layers == ["gone", "gone.module"]
        assert learner.predict is not original
    finally:
        installed.close()
    assert learner.predict is original


def test_function_boundary_is_patched_where_imported():
    import structsum.experiments as experiments
    import structsum.greedy as greedy
    import structsum.learner as learner

    original = greedy.greedy_maximize
    layers = (tracing.Layer("greedy", ("structsum.greedy:greedy_maximize",), ""),)
    installed = tracing.Installation(tracing.Tracer(), layers)
    try:
        for module in (greedy, learner, experiments):
            assert module.greedy_maximize is not original
    finally:
        installed.close()
    for module in (greedy, learner, experiments):
        assert module.greedy_maximize is original


def test_counting_gain_forwards_commit_only_when_present():
    committed = []

    class WithCommit:
        def __call__(self, summary, k):
            return 1.0

        def commit(self, k):
            committed.append(k)

    counters = Counter()
    plain = tracing.counting_gain(lambda summary, k: 2.0, counters)
    assert not hasattr(plain, "commit")
    assert plain(None, 0) == 2.0
    proxy = tracing.counting_gain(WithCommit(), counters)
    proxy(None, 1)
    proxy.commit(1)
    assert committed == [1]
    assert counters["greedy.gain_evals"] == 2


def test_benchmark_json_matches_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_specs()
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

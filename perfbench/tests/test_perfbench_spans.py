import threading

import pytest

from spans import Recorder, Span, layer_self_times, self_times
from workloads import tail


def _span(sid, name, start, end, parent=None, leaf_s=0.0):
    span = Span(sid, name, start, parent, None)
    span.end = end
    span.leaf_s = leaf_s
    return span


def test_self_time_of_a_hand_built_tree():
    spans = [
        _span(0, "harness.answer", 0.0, 10.0),
        _span(1, "retrieval.find_paths", 1.0, 4.0, parent=0, leaf_s=1.5),
        _span(2, "retrieval.prune", 5.0, 9.0, parent=0),
        _span(3, "graph.bfs", 6.0, 7.0, parent=2),
    ]
    leaves = {"causal.out_edges": {"retrieval.find_paths": [10, 40, 1.5]}}
    own = self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 1.5, 2: 3.0, 3: 1.0})
    layers = layer_self_times(spans, leaves)
    assert layers == pytest.approx({"harness": 3.0, "retrieval": 4.5, "graph": 1.0, "causal": 1.5})
    assert sum(layers.values()) == pytest.approx(10.0)


def test_overlapping_children_subtract_their_union():
    # Two worker threads' items under one run_evaluation span.
    spans = [
        _span(0, "harness.run_evaluation", 0.0, 10.0),
        _span(1, "harness.answer", 1.0, 6.0, parent=0),
        _span(2, "harness.answer", 3.0, 8.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx({0: 3.0, 1: 5.0, 2: 5.0})


def test_recorder_nests_per_thread_and_attaches_workers_to_the_root():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    root = rec.open("harness.run_evaluation")
    rec.root = root
    with rec.span("harness.answer", item_id="q1") as answer:
        with rec.span("retrieval.find_paths") as search:
            rec.leaf("causal.out_edges", 0.25, 3)
    worker = threading.Thread(target=lambda: rec.close(rec.open("harness.answer", item_id="q2")))
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()
    rec.close(root)
    assert search.parent == answer.sid and search.item_id == "q1"
    assert search.leaf_s == 0.25
    assert rec.spans[-1].parent == root.sid and rec.spans[-1].item_id == "q2"
    assert rec.leaves["causal.out_edges"]["retrieval.find_paths"] == [1, 3, 0.25]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 201)]
    value, pct, n = tail(samples)
    assert (pct, n) == (95, 200)
    assert value == 190.0
    assert sum(1 for s in samples if s > value) == 10

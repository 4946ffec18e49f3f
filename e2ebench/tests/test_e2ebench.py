"""Tests of the end-to-end benchmark: small smoke runs and negative checks.

Run from the root of a checkout::

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import itertools
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "e2ebench"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from repro.data.store import PackedSubgraph  # noqa: E402
from repro.metrics.ranking import multiclass_auc  # noqa: E402

SMALL_TRAIN = workloads.TrainSize(
    scale=0.1, num_links=300, lr=3e-3, min_ops=20, auc_floor=0.55, grad_entries=2
)
SMALL_GRAPH = workloads.GraphSize(
    scale=0.5, num_targets=4000, in_graph=400, setup_links=160, setup_epochs=1
)
E2E = {"setup_s", "throughput_per_s", "latency_p50_ms", "latency_p99_ms", "peak_rss_mb", "auc"}


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)


def _passes(outcome, probes=0):
    """Every check passed; only composition probes may have failed."""
    assert outcome.problems == []
    failed_probes = sum(n.startswith("composition probe") for n in outcome.notes)
    assert failed_probes <= probes
    assert outcome.failed == failed_probes
    assert outcome.attempted >= 20
    assert set(outcome.metrics) == E2E
    assert all(v > 0 for v in outcome.metrics.values())


# --------------------------------------------------------------------- #
# smoke runs
# --------------------------------------------------------------------- #
def test_any_integer_is_a_seed():
    assert run.fold_seed(7) == 7
    seed = run.fold_seed(-1)
    assert seed == 2**64 - 1
    _passes(workloads.run_train(seed, 0.5, size=SMALL_TRAIN))


def test_train_smoke():
    _passes(workloads.run_train(1, 0.5, size=SMALL_TRAIN))


def test_serve_smoke_traced():
    size = workloads.ServeSize(graph=SMALL_GRAPH, min_ops=20, check_pairs=4, probe_every=75)
    tracer = Tracer()
    outcome = workloads.run_serve(1, 0.5, tracer, size=size)
    _passes(outcome, probes=3)
    assert outcome.attempted == 225 + 3  # 0.5 s of 450 requests/s, in 3 rounds
    assert not tracer.active
    layers = outcome.layers
    assert layers["serve.score_s"] > 0 and layers["graph.extract_links"] > 0
    assert layers["serve.queue_wait_ms"] > 0
    assert 0 < layers["serve.fill_ratio"] <= 1
    assert layers["nn.backward_s"] == 0  # serving runs no backward


def test_stream_smoke():
    size = workloads.StreamSize(graph=SMALL_GRAPH, hot_pairs=16, min_ops=20, full_check_every=5, score_check_every=10)
    outcome = workloads.run_stream(1, 0.5, size=size)
    _passes(outcome, probes=2)
    assert outcome.attempted == 20 + 2  # min_ops windows, in 2 rounds


def test_every_per_layer_metric_is_produced():
    import json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    size = workloads.StreamSize(graph=SMALL_GRAPH, hot_pairs=16, min_ops=10, score_check_every=10)
    outcome = workloads.run_stream(2, 0.2, Tracer(), size=size)
    produced = set(outcome.layers) | {"trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == produced
    assert outcome.layers["stream.snapshot_s"] > 0 and outcome.layers["graph.halo_s"] > 0


def test_runs_repeat_their_inputs():
    a = workloads._request_plan(50, 500, np.random.default_rng([3, 1]))
    b = workloads._request_plan(50, 500, np.random.default_rng([3, 1]))
    assert np.array_equal(a, b) and a.shape == (50, 8)
    # every new pool index appears in order; repeats only point backwards
    firsts = [j for j in dict.fromkeys(a.ravel().tolist())]
    assert firsts == list(range(len(firsts)))


# --------------------------------------------------------------------- #
# negative tests: each check rejects a corrupted output
# --------------------------------------------------------------------- #
def _probs(rng, n=40, c=3):
    p = rng.random((n, c))
    return p / p.sum(axis=1, keepdims=True)


def test_auc_is_the_rank_statistic():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 3, 60)
    probs = _probs(rng, 60)
    probs[5, 0] = probs[6, 0]  # a tie
    brute = []
    for c in range(3):
        pos, neg = probs[labels == c, c], probs[labels != c, c]
        wins = sum((p > q) + 0.5 * (p == q) for p, q in itertools.product(pos, neg))
        brute.append(wins / (len(pos) * len(neg)))
    assert checks.macro_ovr_auc(labels, probs) == pytest.approx(np.mean(brute), abs=1e-12)
    assert checks.auc_matches(checks.macro_ovr_auc(labels, probs), multiclass_auc(labels, probs)) is None


def test_wrong_auc_is_rejected():
    rng = np.random.default_rng(1)
    labels, probs = rng.integers(0, 3, 50), _probs(rng, 50)
    own = checks.macro_ovr_auc(labels, probs)
    assert checks.auc_matches(own, own + 1e-9) is not None
    assert checks.auc_above(0.5, 0.75) is not None


def test_perturbed_probability_row_is_rejected():
    probs = _probs(np.random.default_rng(2))
    assert checks.rows_are_distributions(probs) is None
    bad = probs.copy()
    bad[7, 1] += 1e-6
    assert checks.rows_are_distributions(bad) is not None
    bad = probs.copy()
    bad[3] = [1.5, -0.5, 0.0]
    assert checks.rows_are_distributions(bad) is not None


def test_changed_scores_are_rejected():
    probs = _probs(np.random.default_rng(3))
    stale = probs.copy()
    stale[4] = probs[5]
    assert checks.scores_agree(stale, probs, "rows") is not None
    ulp = probs.copy()
    ulp[0, 0] = np.nextafter(ulp[0, 0], 1.0)
    assert checks.scores_agree(ulp, probs, "rows") is None
    assert checks.bitwise_equal(ulp, probs, "rows") is not None


def _arcs(und):
    und = np.asarray(und)
    return np.stack([np.r_[und[:, 0], und[:, 1]], np.r_[und[:, 1], und[:, 0]]])


def test_dropped_snapshot_edge_is_rejected():
    base = [[0, 1], [1, 2], [2, 3], [1, 2], [3, 4]]
    replay = checks.EdgeReplay(5, _arcs(base))
    assert replay.check(_arcs(base), full=True) is None
    assert replay.check(_arcs(base[1:])) is not None  # one edge dropped
    assert replay.check(_arcs(base[:-1] + [[0, 4]])) is not None  # another edge instead
    one_way = _arcs(base)
    one_way[:, 5] = one_way[::-1, 5]  # 1->0 turned into a second 0->1
    assert replay.check(one_way) is None and replay.check(one_way, full=True) is not None
    # one window: add 0-4, invalidate 2-3, invalidate 0-3 (no such edge)
    replay.apply([0, 1, 1], np.array([[0, 4], [2, 3], [0, 3]]), add_kind=0)
    live = [[0, 1], [1, 2], [1, 2], [3, 4], [0, 4]]
    assert replay.check(_arcs(live), full=True) is None
    assert replay.check(_arcs(live[:-1]), full=True) is not None


def test_wrong_gradient_is_rejected():
    numeric = np.array([0.1, -0.02, 3e-5])
    assert checks.gradients_match(numeric * (1 + 1e-7), numeric) is None
    assert checks.gradients_match(numeric * np.array([1, 1.01, 1]), numeric) is not None


def test_rising_loss_is_rejected():
    assert checks.loss_decreased([2.0, 1.5, 1.2]) is None
    assert checks.loss_decreased([2.0, 2.1]) is not None


def test_changed_subgraph_is_rejected():
    rng = np.random.default_rng(4)
    sub = PackedSubgraph(
        index=0, num_nodes=3, num_edges=2, edge_index=np.array([[0, 1], [1, 2]]),
        features=rng.random((3, 4)), node_type=np.zeros(3, dtype=np.int64),
        edge_type=np.array([1, 2]), edge_attr=np.eye(2), node_features=None,
    )
    assert checks.subgraph_equal(sub, sub) is None
    features = sub.features.copy()
    features[2, 1] += 1e-12
    assert checks.subgraph_equal(sub._replace(features=features), sub) is not None
    assert checks.subgraph_equal(sub._replace(edge_type=np.array([2, 1])), sub) is not None


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

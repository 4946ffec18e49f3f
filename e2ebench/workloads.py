"""The three workloads of the end-to-end benchmark: train, serve and stream.

Each workload makes its inputs from the seed alone and hands the program only
those inputs. It sets itself up ``SETUP_REPEATS`` times and reports the
median as ``setup_s``, then runs its timed phase: a fixed number of whole
operations (optimizer steps, requests, windows). The time budget sets that
number through the workload's rate, the operations per second the reference
host completes, so a run measures about the budget there. The work, not the
time, is fixed: a faster program finishes sooner, and memory and AUC do not
move with speed. Correctness checks run outside the timed phase. With a
:class:`Tracer` the same run also yields the per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import resource
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

import checks
from tracer import SPAN_NAMES, Tracer, patch

from repro.data.extraction import build_packed_sample
from repro.datasets import load_primekg_like, load_wordnet_like
from repro.graph.structure import Graph
from repro.models import AMDGCNN
from repro.nn.losses import cross_entropy
from repro.nn.optim import Adam
from repro.nn.tensor import no_grad
from repro.seal import SEALDataset, TrainConfig, evaluate, train, train_test_split_indices
from repro.serve import LinkScorer, ModelBundle, ScoringServer, ServeConfig
from repro.stream import ADD_EDGE, INVALIDATE_EDGE, EventBatch, StreamingGraph

SETUP_REPEATS = 3
#: Every timed phase runs at least this many operations, so that at least
#: ten samples lie beyond p99.
MIN_OPS = 1000
#: The datasets are fixed; the run's seed varies everything else.
DATA_SEED = 0
HIDDEN_DIM = 16
SORT_K = 10
BATCH_SIZE = 16
MICRO_BATCH = 16  # the scorer's fixed forward width
#: Operations per second of budget on the reference host.
TRAIN_RATE = 40.0  # optimizer steps
SERVE_RATE = 450.0  # requests
STREAM_RATE = 35.0  # windows


def _operations(rate: float, seconds: float, min_ops: int) -> int:
    return max(min_ops, int(round(rate * seconds)))


@dataclass
class Outcome:
    """What one run measured and found."""

    attempted: int
    failed: int
    problems: List[str]
    metrics: Dict[str, float]
    layers: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)  # diagnosis for stderr


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _repeated_setup(build: Callable[[], object]):
    """Build ``SETUP_REPEATS`` times; keep the last build, return the median.

    The garbage of each build (autograd graphs hold reference cycles) is
    collected before the next one and before the timed phase, so neither
    the peak RSS nor the first timed operations depend on when the
    collector happens to run.
    """
    seconds, built = [], None
    for _ in range(SETUP_REPEATS):
        built = None
        gc.collect()
        t = time.perf_counter()
        built = build()
        seconds.append(time.perf_counter() - t)
    gc.collect()
    return built, statistics.median(seconds)


def _end_to_end(setup_s, throughput, latencies_s, rss_mb, auc) -> Dict[str, float]:
    ms = np.asarray(latencies_s) * 1e3
    return {
        "setup_s": setup_s,
        "throughput_per_s": throughput,
        "latency_p50_ms": float(np.percentile(ms, 50)),
        "latency_p99_ms": float(np.percentile(ms, 99)),
        "peak_rss_mb": rss_mb,
        "auc": auc,
    }


def _share(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _layers(tracer: Tracer, ops: int, store, plans_before) -> Dict[str, float]:
    """Per-layer metrics of a traced timed phase (see the README)."""
    selfs = tracer.self_times()
    calls = tracer.calls()
    out = {f"{name}_s": selfs.get(name, 0.0) / ops for name in SPAN_NAMES}
    counters = tracer.registry.counters
    occupancy = tracer.registry.histograms.get("serve.batch.occupancy")
    info = store.cache_info()
    live_rows = int(store.node_count[store.node_start >= 0].sum())
    out.update(
        {
            "graph.extract_links": tracer.pairs.get("graph.extract", 0.0),
            "data.store_mb": info.nbytes / 2**20,
            "data.store_live_ratio": live_rows / info.nodes if info.nodes else 0.0,
            "data.plan_cache_hit_ratio": _share(
                info.lifetime_plan_hits - plans_before[0],
                info.lifetime_plan_misses - plans_before[1],
            ),
            "data.plan_cache_entries": float(info.plans),
            "nn.kernel_plan_hit_ratio": _share(
                counters["kernels.plan_cache.hits"], counters["kernels.plan_cache.misses"]
            ),
            "serve.batch_pairs": (
                tracer.pairs.get("serve.score", 0.0) / calls["serve.score"]
                if calls.get("serve.score") else 0.0
            ),
            "serve.fill_ratio": occupancy.mean if occupancy is not None else 0.0,
            "serve.cache_hit_ratio": _share(
                counters["serve.cache.hits"], counters["serve.cache.misses"]
            ),
            "serve.retired_ratio": _share(
                counters["serve.cache.retired_pairs"], counters["serve.cache.survivor_pairs"]
            ),
            "serve.queue_wait_ms": 0.0,
            "stream.compactions": counters["stream.compactions"],
        }
    )
    return out


def _plans(store):
    info = store.cache_info()
    return info.lifetime_plan_hits, info.lifetime_plan_misses


def _model(task, seed: int) -> AMDGCNN:
    return AMDGCNN(
        task.feature_config.width, task.num_classes, edge_dim=task.edge_attr_dim,
        heads=2, hidden_dim=HIDDEN_DIM, num_conv_layers=2, sort_k=SORT_K, rng=seed,
    )


# --------------------------------------------------------------------- #
# train
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class TrainSize:
    scale: float = 1.0  # WordNet-like: 2000 * scale nodes
    num_links: int = 1500  # labeled links, 80% train / 20% held out
    lr: float = 1e-3
    min_ops: int = MIN_OPS
    auc_floor: float = 0.75
    grad_entries: int = 4  # finite-difference entries per parameter tensor


class _StepClock:
    """Training callback marking where the first step's interval starts.

    An interval runs from one ``Adam.step`` return to the next, so the first
    step of each epoch after the first also carries the previous epoch's
    held-out evaluation: those intervals are the run's slowest 1%.
    """

    def __init__(self) -> None:
        self.mark = 0.0

    def on_train_begin(self, config, result) -> None:
        self.mark = time.perf_counter()

    def on_epoch_end(self, epoch, result) -> None:
        pass

    def on_train_end(self, result) -> None:
        pass


def _gradient_check(task, size: TrainSize, seed: int, indices) -> Optional[str]:
    """Autograd gradients of one batch against central finite differences."""
    model = _model(task, seed)
    model.eval()  # dropout off: the loss must be a function of the weights
    batch, labels = SEALDataset(task, rng=seed).batch(indices)
    model.zero_grad()
    cross_entropy(model(batch), labels).backward()
    gen = np.random.default_rng(seed)
    eps = 1e-6
    analytic, numeric = [], []
    with no_grad():
        for _, p in model.named_parameters():
            picks = gen.choice(p.data.size, size=min(size.grad_entries, p.data.size), replace=False)
            for flat in picks:
                pos = np.unravel_index(int(flat), p.data.shape)
                orig = float(p.data[pos])
                p.data[pos] = orig + eps
                up = float(cross_entropy(model(batch), labels).data)
                p.data[pos] = orig - eps
                down = float(cross_entropy(model(batch), labels).data)
                p.data[pos] = orig
                numeric.append((up - down) / (2 * eps))
                analytic.append(0.0 if p.grad is None else float(p.grad[pos]))
    return checks.gradients_match(np.array(analytic), np.array(numeric))


def run_train(seed: int, seconds: float, tracer: Optional[Tracer] = None,
              size: TrainSize = TrainSize()) -> Outcome:
    def build():
        task = load_wordnet_like(scale=size.scale, num_targets=size.num_links, rng=DATA_SEED)
        tr, te = train_test_split_indices(task.num_links, 0.2, labels=task.labels, rng=seed)
        return task, tr, te, SEALDataset(task, rng=seed), _model(task, seed)

    (task, tr, te, ds, model), setup_s = _repeated_setup(build)
    problems = [_gradient_check(task, size, seed, tr[:BATCH_SIZE])]

    per_epoch = math.ceil(len(tr) / BATCH_SIZE)
    # Two epochs at least, so the loss of the last can be compared with the first.
    epochs = max(2, math.ceil(_operations(TRAIN_RATE, seconds, size.min_ops) / per_epoch))
    steps: List[float] = []
    clock = _StepClock()

    def stamp(step):
        def stamped(optimizer):
            step(optimizer)
            now = time.perf_counter()
            steps.append(now - clock.mark)
            clock.mark = now
        return stamped

    config = TrainConfig(epochs=epochs, batch_size=BATCH_SIZE, lr=size.lr)
    layers: Dict[str, float] = {}
    with patch(Adam, "step", stamp):
        plans_before = _plans(ds.store)
        if tracer is not None:
            tracer.start()
        t0 = time.perf_counter()
        with tracer.span("seal.loop") if tracer is not None else nullcontext():
            result = train(model, ds, tr, config, eval_indices=te, rng=seed,
                           callbacks=[clock], verbose=False)
        elapsed = time.perf_counter() - t0
        rss = _peak_rss_mb()
        if tracer is not None:
            tracer.stop()
            layers = _layers(tracer, len(steps), ds.store, plans_before)

    final = evaluate(model, ds, te)
    own_auc = checks.macro_ovr_auc(final.labels, final.probs)
    problems += [
        checks.auc_matches(own_auc, final.auc),
        checks.auc_matches(final.auc, result.eval_auc[-1]),
        checks.rows_are_distributions(final.probs),
        checks.loss_decreased(result.losses),
        checks.auc_above(final.auc, size.auc_floor),
    ]
    links = result.epochs_run * len(tr)
    return Outcome(
        attempted=len(steps) + result.nonfinite_steps,
        failed=result.nonfinite_steps,
        problems=[p for p in problems if p],
        metrics=_end_to_end(setup_s, links / elapsed, steps, rss, final.auc),
        layers=layers,
    )


# --------------------------------------------------------------------- #
# the PrimeKG-like graph and model shared by serve and stream
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class GraphSize:
    scale: float = 5.0  # PrimeKG-like: 2000 * scale nodes
    num_targets: int = 100000  # labeled drug-disease links the generator draws
    in_graph: int = 2000  # of those, kept as edges; the rest are held out
    setup_links: int = 480  # in-graph links the set-up training uses
    setup_epochs: int = 2


#: The composition probe: the first ``PROBE_PAIRS`` held-out links in the
#: generator's order, scored by an untrained model of weight and extraction
#: seed ``PROBE_SEED``. Nothing in it depends on the run's seed.
PROBE_PAIRS = 2 * MICRO_BATCH
PROBE_SEED = 0


@dataclass
class _KG:
    graph: Graph
    bundle: ModelBundle
    pairs: np.ndarray  # held-out links, not edges of ``graph``
    labels: np.ndarray
    edge_type: np.ndarray
    edge_attr: np.ndarray
    probe_bundle: ModelBundle
    probe_pairs: np.ndarray


def _kg(seed: int, size: GraphSize) -> _KG:
    """PrimeKG-like graph with most labeled links held out, plus a model.

    The generator inserts every labeled link as an edge, after the
    background edges (``Graph.from_undirected`` keeps edge order: arc
    ``2i`` is edge ``i``). All but ``in_graph`` of them are taken out again:
    they are the links to classify, not yet in the graph, in an order drawn
    from ``seed``. The seed also sets the model's initial weights, the
    set-up training's shuffle and the extraction streams.
    """
    task = load_primekg_like(scale=size.scale, num_targets=size.num_targets, rng=DATA_SEED)
    g = task.graph
    und = g.edge_index[:, 0::2].T
    first = len(und) - task.num_links
    if not np.array_equal(und[first:], task.pairs):
        raise RuntimeError("labeled links are not the last edges of the generated graph")
    keep = np.ones(len(und), dtype=bool)
    keep[first + size.in_graph:] = False
    etype, eattr = g.edge_type[0::2], g.edge_attr[0::2]
    graph = Graph.from_undirected(
        g.num_nodes, und[keep], node_type=g.node_type, node_features=g.node_features,
        edge_type=etype[keep], edge_attr=eattr[keep],
    )
    graph.csr()
    kept = dataclasses.replace(
        task, graph=graph, pairs=task.pairs[: size.in_graph], labels=task.labels[: size.in_graph]
    )
    model = _model(kept, seed)
    train(model, SEALDataset(kept, rng=seed), np.arange(size.setup_links),
          TrainConfig(epochs=size.setup_epochs, batch_size=BATCH_SIZE, lr=3e-3),
          rng=seed, verbose=False)
    order = np.random.default_rng([seed, 0]).permutation(task.num_links - size.in_graph)
    held = np.flatnonzero(~keep)[order]
    return _KG(
        graph=graph,
        bundle=ModelBundle.from_model(model, kept, extraction_seed=seed),
        pairs=task.pairs[size.in_graph:][order],
        labels=task.labels[size.in_graph:][order],
        edge_type=etype[held],
        edge_attr=eattr[held],
        probe_bundle=ModelBundle.from_model(_model(kept, PROBE_SEED), kept, extraction_seed=PROBE_SEED),
        probe_pairs=task.pairs[size.in_graph : size.in_graph + PROBE_PAIRS],
    )


def _composition_probe(kg: _KG) -> Optional[str]:
    """The scorer's promise that a row does not depend on its batch.

    The probe pairs are scored together on one fresh scorer and one at a
    time on another; the rows must be bitwise equal. The inputs are fixed,
    so the probe fails in every run or in none.
    """
    together = LinkScorer(kg.probe_bundle, kg.graph, micro_batch=MICRO_BATCH)
    alone = LinkScorer(kg.probe_bundle, kg.graph, micro_batch=MICRO_BATCH)
    rows = np.stack([alone.score(pair[None]).probs[0] for pair in kg.probe_pairs])
    problem = checks.bitwise_equal(together.score(kg.probe_pairs).probs, rows,
                                   "probe pairs scored together and alone")
    return f"composition probe: {problem}" if problem else None


class _PairTask:
    """The per-link extractor's view of served pairs.

    The scorer keys each pair's extraction stream on its content, ``"u:v"``,
    under the bundle's task name and extraction seed.
    """

    def __init__(self, graph: Graph, bundle: ModelBundle, pairs: np.ndarray):
        self.graph = graph
        self.pairs = pairs
        self.name = bundle.task_name
        self.num_hops = bundle.num_hops
        self.subgraph_mode = bundle.subgraph_mode
        self.max_subgraph_nodes = bundle.max_subgraph_nodes
        self.feature_config = bundle.feature_config

    def link_key(self, index: int) -> str:
        u, v = self.pairs[index]
        return f"{int(u)}:{int(v)}"


# --------------------------------------------------------------------- #
# serve
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ServeSize:
    graph: GraphSize = GraphSize()
    check_pairs: int = 24  # served pairs re-scored alone and re-extracted
    probe_every: int = 1000  # requests per round; a round ends with one composition probe
    min_ops: int = MIN_OPS


PAIRS_PER_REQUEST = 8
IN_FLIGHT = 4  # requests kept in flight
REPEAT_SHARE = 0.25  # pairs that repeat an earlier pair


def _request_plan(requests: int, num_pool: int, gen: np.random.Generator) -> np.ndarray:
    """Held-out pool index of every pair of every request, in order.

    Each pair repeats a uniformly drawn earlier pair with probability
    ``REPEAT_SHARE``, else takes the next unused held-out link.
    """
    total = requests * PAIRS_PER_REQUEST
    order: List[int] = []
    fresh = 0
    repeat = gen.random(total) < REPEAT_SHARE
    draw = gen.random(total)
    for i in range(total):
        if repeat[i] and order:
            order.append(order[int(draw[i] * len(order))])
        elif fresh < num_pool:
            order.append(fresh)
            fresh += 1
        else:
            raise ValueError(f"{num_pool} held-out links are too few for {requests} requests")
    return np.asarray(order, dtype=np.int64).reshape(requests, PAIRS_PER_REQUEST)


def run_serve(seed: int, seconds: float, tracer: Optional[Tracer] = None,
              size: ServeSize = ServeSize()) -> Outcome:
    rounds = math.ceil(_operations(SERVE_RATE, seconds, size.min_ops) / size.probe_every)

    def build():
        kg = _kg(seed, size.graph)
        scorer = LinkScorer(kg.bundle, kg.graph, micro_batch=MICRO_BATCH)
        plan = _request_plan(rounds * size.probe_every, len(kg.pairs), np.random.default_rng([seed, 1]))
        return kg, scorer, ScoringServer(scorer, ServeConfig(batch_window_s=0.0)), plan

    (kg, scorer, server, plan), setup_s = _repeated_setup(build)
    # Closed loop driven by completions: each of ``IN_FLIGHT`` clients sends
    # its next request from the callback that resolves its previous one, on
    # the server's worker thread. The benchmark adds no thread of its own
    # to compete with the worker for the interpreter lock; results are
    # checked after the timed phase. Only the rows, the rejection reason and
    # the times of a request are kept, not its future or its result.
    records: List[tuple] = []  # (request, sent, done, score call seconds, rows, reason)
    inflight: Dict[object, tuple] = {}
    finished = threading.Event()
    errors: List[Exception] = []
    nxt = 0

    def send() -> None:
        nonlocal nxt
        i, nxt = nxt, nxt + 1
        sent = time.perf_counter()
        future = server.submit(kg.pairs[plan[i]])
        inflight[future] = (i, sent)
        future.add_done_callback(on_done)

    def on_done(future) -> None:
        done = time.perf_counter()
        try:
            score_s = tracer.last_duration("serve.score") if tracer is not None else None
            i, sent = inflight.pop(future)
            out = future.result()
            records.append((i, sent, done, score_s, out.probs if out.ok else None,
                            None if out.ok else out.reason))
            if nxt < len(plan):
                send()
            elif not inflight:
                finished.set()
        except Exception as exc:  # Future only logs callback errors
            errors.append(exc)
            finished.set()

    plans_before = _plans(scorer.store)
    if tracer is not None:
        tracer.start()
    for _ in range(min(IN_FLIGHT, len(plan))):
        send()  # queued until the worker starts
    t0 = time.perf_counter()
    server.start()
    if not finished.wait(timeout=150) or errors:
        server.stop(drain=False)
        raise RuntimeError(f"serve loop did not finish: {errors}")
    elapsed = time.perf_counter() - t0
    rss = _peak_rss_mb()
    server.stop()
    if tracer is not None:
        tracer.stop()

    problems: List[Optional[str]] = []
    served: Dict[int, np.ndarray] = {}  # pool index -> first served row
    latencies, waits = [], []
    failed = answered = 0
    for i, sent, done, score_s, rows, reason in sorted(records, key=lambda r: r[2]):
        latencies.append(done - sent)
        problem = checks.rows_are_distributions(rows) if rows is not None else f"rejected: {reason}"
        if problem:
            failed += 1
            problems.append(f"request {i}: {problem}")
            continue
        answered += len(rows)
        if score_s is not None:
            waits.append(done - sent - score_s)
        for j, row in zip(plan[i], rows):
            served.setdefault(int(j), row)
    layers: Dict[str, float] = {}
    if tracer is not None:
        layers = _layers(tracer, len(plan), scorer.store, plans_before)
        layers["serve.queue_wait_ms"] = 1e3 * float(np.mean(waits)) if waits else 0.0

    idx = np.fromiter(served, dtype=np.int64)
    probs = np.stack([served[int(j)] for j in idx])
    auc = checks.macro_ovr_auc(kg.labels[idx], probs)

    # A served row against the row a fresh scorer gives the pair alone, and
    # the stored subgraph against the per-link extractor's (LinkScorer has
    # no public pair -> slot lookup). Which served pairs differ bitwise
    # depends on how the seed's requests happened to be batched (see the
    # README), so here the rows must agree to rounding, and bitwise
    # differences go to stderr; the composition probe below is the bitwise
    # gate.
    pick = np.random.default_rng([seed, 2]).choice(len(idx), size=min(size.check_pairs, len(idx)), replace=False)
    pairs = kg.pairs[idx[pick]]
    fresh = LinkScorer(kg.bundle, kg.graph, micro_batch=MICRO_BATCH)
    reference = _PairTask(kg.graph, kg.bundle, pairs)
    notes = []
    for k, (u, v) in enumerate(pairs):
        alone, row = fresh.score(pairs[k : k + 1]).probs[0], served[int(idx[pick[k]])]
        problems.append(checks.scores_agree(row, alone, f"pair {u}:{v} scored alone"))
        notes.append(checks.bitwise_equal(row, alone, f"pair {u}:{v} scored alone"))
        stored = scorer.store.get(scorer._slots[(int(u), int(v))])
        problems.append(checks.subgraph_equal(stored, build_packed_sample(reference, kg.bundle.extraction_seed, k)))
    probes = [_composition_probe(kg) for _ in range(rounds)]
    return Outcome(
        attempted=len(plan) + rounds,
        failed=failed + sum(p is not None for p in probes),
        problems=[p for p in problems if p],
        metrics=_end_to_end(setup_s, answered / elapsed, latencies, rss, auc),
        layers=layers,
        notes=[n for n in notes + probes if n],
    )


# --------------------------------------------------------------------- #
# stream
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class StreamSize:
    graph: GraphSize = GraphSize()
    hot_pairs: int = 96
    full_check_every: int = 100  # windows between exact edge-set comparisons
    #: Windows per round. A round ends with a fresh-scorer comparison of the
    #: hot set and one composition probe.
    score_check_every: int = 175
    min_ops: int = MIN_OPS


WINDOW = 4  # events per window
ADD_SHARE = 0.75  # events that add a held-out link; the rest invalidate


def _event_windows(kg: _KG, first: int, count: int, gen: np.random.Generator) -> List[EventBatch]:
    """Seeded windows of add / invalidate events and their new-link labels.

    Adds publish the held-out links from ``first`` on, in order. An
    invalidation retracts a uniformly drawn live edge: a base edge or an
    earlier add, each at most once.
    """
    g = kg.graph
    table_pairs = [tuple(p) for p in g.edge_index[:, 0::2].T.tolist()]
    table_type = g.edge_type[0::2].tolist()
    table_attr = list(g.edge_attr[0::2])
    live = list(range(len(table_pairs)))
    nxt = first
    windows = []
    for w in range(count):
        kinds = np.where(gen.random(WINDOW) < ADD_SHARE, ADD_EDGE, INVALIDATE_EDGE)
        pairs, etype, attr, labels = [], [], [], []
        for kind in kinds:
            if kind == ADD_EDGE:
                if nxt == len(kg.pairs):
                    raise ValueError(f"held-out links run out before window {w}")
                pair, t, a, label = tuple(kg.pairs[nxt]), int(kg.edge_type[nxt]), kg.edge_attr[nxt], int(kg.labels[nxt])
                table_pairs.append(pair)
                table_type.append(t)
                table_attr.append(a)
                live.append(len(table_pairs) - 1)
                nxt += 1
            else:
                j = int(gen.integers(len(live)))
                row = live[j]
                live[j] = live[-1]
                live.pop()
                pair, t, a = table_pairs[row], table_type[row], table_attr[row]
                label = t
            pairs.append(pair)
            etype.append(t)
            attr.append(a)
            labels.append(label)
        windows.append(
            EventBatch(
                times=np.arange(w * WINDOW, (w + 1) * WINDOW, dtype=np.float64),
                kinds=kinds.astype(np.int8),
                pairs=np.asarray(pairs, dtype=np.int64),
                edge_type=np.asarray(etype, dtype=np.int64),
                labels=np.asarray(labels, dtype=np.int64),
                edge_attr=np.asarray(attr, dtype=np.float64),
            )
        )
    return windows


def run_stream(seed: int, seconds: float, tracer: Optional[Tracer] = None,
               size: StreamSize = StreamSize()) -> Outcome:
    rounds = math.ceil(_operations(STREAM_RATE, seconds, size.min_ops) / size.score_check_every)

    def build():
        kg = _kg(seed, size.graph)
        hot = kg.pairs[: size.hot_pairs]
        scorer = LinkScorer(kg.bundle, kg.graph, micro_batch=MICRO_BATCH)
        scorer.warm(hot)
        scorer.score(hot)
        windows = _event_windows(kg, size.hot_pairs, rounds * size.score_check_every,
                                 np.random.default_rng([seed, 3]))
        return kg, hot, scorer, StreamingGraph(kg.graph), windows

    (kg, hot, scorer, stream, windows), setup_s = _repeated_setup(build)
    replay = checks.EdgeReplay(kg.graph.num_nodes, kg.graph.edge_index)
    problems: List[Optional[str]] = []
    notes: List[Optional[str]] = []
    latencies: List[float] = []
    new_probs, new_labels = [], []
    failed = 0
    events = 0

    plans_before = _plans(scorer.store)
    if tracer is not None:
        tracer.start()
    measured = 0.0
    for w, batch in enumerate(windows):
        add = batch.kinds == ADD_EDGE
        t = time.perf_counter()
        scored = scorer.score(batch.pairs[add]).probs if add.any() else None
        stream.apply(batch)
        snap = stream.snapshot()
        scorer.invalidate(snap.graph, delta=snap.delta)
        hot_probs = scorer.score(hot).probs
        dt = time.perf_counter() - t
        measured += dt
        latencies.append(dt)
        events += len(batch)

        replay.apply(batch.kinds, batch.pairs, ADD_EDGE)
        last = w == len(windows) - 1
        problem = replay.check(snap.graph.edge_index, full=last or w % size.full_check_every == 0)
        problem = problem or checks.rows_are_distributions(hot_probs)
        if scored is not None:
            problem = problem or checks.rows_are_distributions(scored)
            new_probs.append(scored)
            new_labels.append(batch.labels[add])
        if (w + 1) % size.score_check_every == 0:
            # The end of a round: the hot set against a fresh scorer on the
            # same snapshot (to rounding; bitwise differences to stderr, as
            # in serve), then the composition probe. Checked here, untraced,
            # so that no snapshot outlives its window.
            with tracer.paused() if tracer is not None else nullcontext():
                fresh = LinkScorer(kg.bundle, snap.graph, micro_batch=MICRO_BATCH).score(hot).probs
                probe = _composition_probe(kg)
            problem = problem or checks.scores_agree(hot_probs, fresh, f"hot set after window {w}")
            notes += [checks.bitwise_equal(hot_probs, fresh, f"hot set after window {w}"), probe]
            failed += probe is not None
        if problem:
            failed += 1
            problems.append(f"window {w}: {problem}")
    rss = _peak_rss_mb()
    layers: Dict[str, float] = {}
    if tracer is not None:
        tracer.stop()
        layers = _layers(tracer, len(latencies), scorer.store, plans_before)
    auc = checks.macro_ovr_auc(np.concatenate(new_labels), np.concatenate(new_probs))
    return Outcome(
        attempted=len(latencies) + rounds,
        failed=failed,
        problems=[p for p in problems if p],
        metrics=_end_to_end(setup_s, events / measured, latencies, rss, auc),
        layers=layers,
        notes=[n for n in notes if n],
    )


RUNNERS = {"train": run_train, "serve": run_serve, "stream": run_stream}

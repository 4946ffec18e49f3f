"""Correctness checks of the end-to-end benchmark.

Each check compares a program output against a computation made here, apart
from the program, or against a property the method must have. A check
returns ``None`` when the output passes and a one-line reason when it does
not, so the runner can count failures and the tests can feed it corrupted
outputs.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.stats import rankdata

_MASK = (1 << 64) - 1


def macro_ovr_auc(labels: np.ndarray, probs: np.ndarray) -> float:
    """Macro one-vs-rest AUC by the Mann-Whitney rank statistic.

    Ties get average ranks. A class with no positive or no negative row
    has no AUC and is skipped; with none left the result is 0.5.
    """
    labels = np.asarray(labels)
    probs = np.asarray(probs, dtype=np.float64)
    aucs = []
    for c in np.unique(labels):
        pos = labels == c
        n_pos = int(pos.sum())
        n_neg = len(labels) - n_pos
        if n_pos == 0 or n_neg == 0:
            continue
        ranks = rankdata(probs[:, c])
        aucs.append((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
    return float(np.mean(aucs)) if aucs else 0.5


def auc_matches(own: float, reported: float, tol: float = 1e-12) -> Optional[str]:
    if not abs(own - reported) <= tol:
        return f"program AUC {reported!r} != rank-statistic AUC {own!r}"
    return None


def auc_above(auc: float, floor: float) -> Optional[str]:
    if not auc >= floor:
        return f"AUC {auc:.4f} below the floor {floor}"
    return None


def rows_are_distributions(probs: np.ndarray, atol: float = 1e-9) -> Optional[str]:
    """Every row is finite, non-negative and sums to one."""
    probs = np.asarray(probs)
    if probs.ndim != 2 or probs.shape[0] == 0:
        return f"probabilities have shape {probs.shape}"
    if not np.all(np.isfinite(probs)) or np.any(probs < 0):
        return "probabilities not finite and non-negative"
    worst = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    if worst > atol:
        return f"a probability row sums to 1{worst:+.3g}"
    return None


def bitwise_equal(got: np.ndarray, want: np.ndarray, what: str) -> Optional[str]:
    if got.shape != want.shape or got.dtype != want.dtype or not np.array_equal(got, want):
        return f"{what}: not bitwise equal"
    return None


def scores_agree(got: np.ndarray, want: np.ndarray, what: str, atol: float = 1e-12) -> Optional[str]:
    """Same scores up to ``atol``: a stale, misplaced or wrong row fails."""
    if got.shape != want.shape or not np.all(np.abs(got - want) <= atol):
        return f"{what}: scores differ by more than {atol}"
    return None


def gradients_match(
    analytic: np.ndarray, numeric: np.ndarray, rtol: float = 1e-4, atol: float = 1e-7
) -> Optional[str]:
    """Autograd gradient entries against central finite differences."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    err = np.abs(analytic - numeric)
    bad = err > atol + rtol * np.abs(numeric)
    if np.any(bad):
        i = int(np.argmax(err - rtol * np.abs(numeric)))
        return (
            f"{int(bad.sum())} of {bad.size} gradient entries differ from finite "
            f"differences (worst: {analytic[i]:.6g} vs {numeric[i]:.6g})"
        )
    return None


def loss_decreased(losses: Sequence[float]) -> Optional[str]:
    if len(losses) < 2 or not losses[-1] < losses[0]:
        return f"final-epoch loss not below the first: {list(losses)}"
    return None


def subgraph_equal(stored, reference) -> Optional[str]:
    """Two packed subgraphs (any objects with the ``PackedSubgraph`` fields)."""
    for field in ("num_nodes", "num_edges"):
        if getattr(stored, field) != getattr(reference, field):
            return f"stored subgraph {field} differs from the per-link extractor"
    for field in ("edge_index", "features", "node_type", "edge_type", "edge_attr", "node_features"):
        a, b = getattr(stored, field), getattr(reference, field)
        if (a is None) != (b is None) or (a is not None and not np.array_equal(a, b)):
            return f"stored subgraph {field} differs from the per-link extractor"
    return None


def _mix(codes: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser: a 64-bit hash per edge code (wrapping arithmetic)."""
    x = codes.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _hash_sum(codes: np.ndarray) -> int:
    with np.errstate(over="ignore"):
        return int(np.sum(_mix(codes), dtype=np.uint64))


class EdgeReplay:
    """An independent replay of edge events over a plain multiset of edges.

    Edges are undirected ``min(u, v) * n + max(u, v)`` codes. An add puts one
    copy in; an invalidation takes one copy out if any is live, else it is
    unmatched and changes nothing. Beside the multiset the replay keeps an
    additive 64-bit fingerprint (a sum of per-edge hashes), so a snapshot can
    be compared with it in one pass over its arcs.
    """

    def __init__(self, num_nodes: int, edge_index: np.ndarray):
        self.n = int(num_nodes)
        codes = self._codes(edge_index[0], edge_index[1])
        values, counts = np.unique(codes, return_counts=True)
        if np.any(counts % 2):
            raise ValueError("base graph arcs are not symmetric")
        self.edges = Counter(dict(zip(values.tolist(), (counts // 2).tolist())))
        self.total = int(codes.size // 2)
        self.fingerprint = _hash_sum(codes)

    def _codes(self, u, v) -> np.ndarray:
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        return np.minimum(u, v) * self.n + np.maximum(u, v)

    def apply(self, kinds: Iterable[int], pairs: np.ndarray, add_kind: int) -> None:
        """Adds first, then invalidations, as one window is applied."""
        kinds = np.asarray(list(kinds))
        codes = self._codes(pairs[:, 0], pairs[:, 1])
        for code in codes[kinds == add_kind].tolist():
            self.edges[code] += 1
            self.total += 1
            self.fingerprint = (self.fingerprint + 2 * _hash_sum(np.array([code]))) & _MASK
        for code in codes[kinds != add_kind].tolist():
            if self.edges.get(code, 0) > 0:
                self.edges[code] -= 1
                if self.edges[code] == 0:
                    del self.edges[code]
                self.total -= 1
                self.fingerprint = (self.fingerprint - 2 * _hash_sum(np.array([code]))) & _MASK

    def check(self, edge_index: np.ndarray, full: bool = False) -> Optional[str]:
        """Compare a snapshot's arcs with the replay.

        Always: arc count and fingerprint. With ``full``: the exact multiset
        and the symmetry of the arcs (every ``u -> v`` has its ``v -> u``).
        """
        src, dst = np.asarray(edge_index[0]), np.asarray(edge_index[1])
        if src.size != 2 * self.total:
            return f"snapshot holds {src.size} arcs, replay {2 * self.total}"
        codes = self._codes(src, dst)
        if _hash_sum(codes) != self.fingerprint:
            return "snapshot edge set differs from the replay (fingerprint)"
        if full:
            fwd = np.sort(src.astype(np.int64) * self.n + dst)
            bwd = np.sort(dst.astype(np.int64) * self.n + src)
            if not np.array_equal(fwd, bwd):
                return "snapshot arcs are not symmetric"
            values, counts = np.unique(codes, return_counts=True)
            want = np.array(sorted(self.edges.items()), dtype=np.int64).reshape(-1, 2)
            if not (
                np.array_equal(values, want[:, 0]) and np.array_equal(counts // 2, want[:, 1])
            ):
                return "snapshot edge set differs from the replay"
        return None

"""Result checks and quality measures shared by every workload.

A query result is a pair (ids, scores). Each result the benchmark times is
checked here; a failed check or an exception counts toward ``failed``.
"""
from __future__ import annotations

import numpy as np

SCORE_TOL = 1e-5


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(problem)


def check_topk(ids, scores, emb: np.ndarray, q: np.ndarray, k: int, n_candidates) -> str | None:
    """None if (ids, scores) is a valid top-k answer for ``q``, else why not.

    Valid: ids unique and in range, count = min(k, candidates), scores
    descending and equal to ``emb[id] @ q`` within ``SCORE_TOL``.
    ``n_candidates`` is a callable; it is only asked when fewer than k ids
    came back, since k ids from unique candidates already implies >= k.
    """
    ids = np.asarray(ids)
    scores = np.asarray(scores, dtype=np.float64)
    if ids.shape != scores.shape or ids.ndim != 1:
        return f"ids {ids.shape} and scores {scores.shape} do not align"
    if np.unique(ids).size != ids.size:
        return "duplicate ids"
    if ids.size and (ids.min() < 0 or ids.max() >= emb.shape[0]):
        return "id out of range"
    if ids.size < k and ids.size != n_candidates():
        return f"{ids.size} results for k={k} but {n_candidates()} candidates"
    if np.any(np.diff(scores) > 0):
        return "scores not descending"
    exact = emb[ids] @ q
    if ids.size and np.max(np.abs(exact - scores)) > SCORE_TOL:
        return f"score off by {np.max(np.abs(exact - scores)):.2e}"
    return None


def same_answer(ids, scores, ref_ids, ref_scores) -> bool:
    """Equal answers: same ids in the same order, or — where scores tie —
    the same id set with the same scores."""
    ids, ref_ids = np.asarray(ids), np.asarray(ref_ids)
    if np.array_equal(ids, ref_ids):
        return True
    return (
        ids.size == ref_ids.size
        and set(ids.tolist()) == set(ref_ids.tolist())
        and np.allclose(np.asarray(scores), np.asarray(ref_scores), atol=SCORE_TOL)
    )


def exact_topk(emb: np.ndarray, queries: np.ndarray, k: int, chunk: int = 32) -> np.ndarray:
    """Exact top-k ids per query by brute force, a chunk of queries at a time."""
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    for s in range(0, queries.shape[0], chunk):
        sc = queries[s : s + chunk] @ emb.T
        top = np.argpartition(-sc, k - 1, axis=1)[:, :k]
        order = np.argsort(-np.take_along_axis(sc, top, axis=1), axis=1)
        out[s : s + chunk] = np.take_along_axis(top, order, axis=1)
    return out


def recall(ranked: list[np.ndarray], truth: np.ndarray) -> float:
    """Mean share of each exact top-k found in the matching result."""
    k = truth.shape[1]
    return float(np.mean([np.intersect1d(r[:k], t).size / k for r, t in zip(ranked, truth)]))

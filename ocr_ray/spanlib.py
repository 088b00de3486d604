"""Span-geometry library: 1-D interval analogs of the reference's rotated-box
geometry (SURVEY.md §2.8).

Every function here is shared verbatim by the pure-Python oracle
(ocr_ray.oracle) and the Ray Data operators (ocr_ray.stages) so that
per-turn parity cannot drift (SURVEY.md §7.4 "hard parts").

Interval convention: a span proposal is ``(start: float, end: float,
score: float)`` with ``start < end`` over character offsets into the
normalized turn payload. Mirrors the N×9 RBOX rows of the reference
(reference: locality_aware_nms.py:38-58, DetectUtil.py:189-216).
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

__all__ = [
    "interval_iou",
    "weighted_merge",
    "standard_nms",
    "nms_locality",
    "reading_order",
    "canonicalize",
]


def interval_iou(g: np.ndarray, p: np.ndarray) -> float:
    """IoU of two (start, end) intervals.

    Analog of the shapely polygon IoU (reference locality_aware_nms.py:5-15):
    invalid (empty / inverted) intervals contribute 0, as do disjoint pairs.
    """
    g0, g1 = g[0], g[1]
    p0, p1 = p[0], p[1]
    if g1 <= g0 or p1 <= p0:
        return 0.0
    inter = min(g1, p1) - max(g0, p0)
    if inter <= 0:
        return 0.0
    union = (g1 - g0) + (p1 - p0) - inter
    if union == 0:
        return 0.0
    return inter / union


def weighted_merge(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Score-weighted coordinate merge; scores add.

    Exact analog of reference locality_aware_nms.py:18-21 (coordinates are
    averaged weighted by score, the merged score is the SUM — mutates and
    returns ``g`` just like the reference).
    """
    g[:2] = (g[2] * g[:2] + p[2] * p[:2]) / (g[2] + p[2])
    g[2] = g[2] + p[2]
    return g


def standard_nms(S: np.ndarray, thres: float) -> np.ndarray:
    """Greedy score-descending NMS over (start, end, score) rows.

    Analog of reference locality_aware_nms.py:24-35, including the ``<=``
    survival comparison and ``np.argsort[::-1]`` tie behavior: in that
    order, a row survives iff no row kept before it has IoU > ``thres``
    with it.

    Each row is tested only against the kept rows that could suppress it,
    found by bisection: IoU > thres needs overlap (a kept start below the
    row's end) and a kept length below ``len_r / thres`` (so a kept start
    above ``s - len_r / thres``). Kept rows of positive length sit in a
    list sorted by start; those whose start falls in that window (widened
    2x, which absorbs float rounding) get the exact per-pair test, with
    the reference's arithmetic. Rows of non-positive length have IoU 0
    with everything, so they are kept unchecked and never indexed."""
    order = np.argsort(S[:, 2])[::-1].tolist()
    if not thres >= 0:  # every IoU, 0 included, exceeds it: only the best row stays
        return S[order[:1]]
    starts = S[:, 0].tolist()
    ends = S[:, 1].tolist()
    kept_starts: list[float] = []  # starts of kept positive-length rows, sorted
    kept_rows: list[int] = []      # their row indices, aligned
    keep: list[int] = []
    for r in order:
        sr, er = starts[r], ends[r]
        lr = er - sr
        if lr > 0:
            lo = sr - 2.0 * lr / thres if thres > 0 else -math.inf
            hi = bisect_left(kept_starts, er)
            suppressed = False
            for j in range(bisect_left(kept_starts, lo), hi):
                k = kept_rows[j]
                sk, ek = kept_starts[j], ends[k]
                inter = min(er, ek) - max(sr, sk)
                if inter > 0:
                    union = (ek - sk) + lr - inter
                    if union != 0 and not inter / union <= thres:
                        suppressed = True
                        break
            if suppressed:
                continue
            pos = bisect_left(kept_starts, sr)
            kept_starts.insert(pos, sr)
            kept_rows.insert(pos, r)
        keep.append(r)
    return S[keep]


def nms_locality(polys: np.ndarray, thres: float = 0.3) -> np.ndarray:
    """Locality-aware NMS (EAST): sequential weighted merge of overlapping
    neighbors in emission order, then standard NMS over the survivors.

    Exact analog of reference locality_aware_nms.py:38-58 — the single
    forward pass over ``polys`` in their given order is order-DEPENDENT and
    part of the parity contract (SURVEY.md §2.7 D1).

    Returns the surviving rows in an unspecified order; callers sort them
    (``propose_spans`` puts them in reading order).

    Early-out: when every row starts at or after the end of every row
    emitted before it (and ``thres >= 0``), every pair has IoU 0, so
    nothing merges and nothing is suppressed: the survivors are the
    input rows.
    """
    rows = polys.tolist() if isinstance(polys, np.ndarray) else polys
    if not rows:
        return np.zeros((0, 3))
    if thres >= 0 and _disjoint_in_order(rows):
        return np.array(rows)
    return standard_nms(np.array(_locality_merge(rows, thres)), thres)


def _locality_merge(rows: list, thres: float) -> list[list[float]]:
    """The sequential pass of :func:`nms_locality`: each row merges into
    the running box when their IoU exceeds ``thres``, else the running box
    is emitted and the row starts a new one."""
    S: list[list[float]] = []
    p: list[float] | None = None
    for g0, g1, gs in rows:
        if p is not None:
            # inline interval_iou on scalars (same arithmetic)
            iou = 0.0
            if g1 > g0 and p[1] > p[0]:
                inter = min(g1, p[1]) - max(g0, p[0])
                if inter > 0:
                    union = (g1 - g0) + (p[1] - p[0]) - inter
                    if union != 0:
                        iou = inter / union
            if iou > thres:
                # weighted_merge(g, p) on scalars (locality_aware_nms.py:18-21)
                tot = gs + p[2]
                p = [
                    (gs * g0 + p[2] * p[0]) / tot,
                    (gs * g1 + p[2] * p[1]) / tot,
                    tot,
                ]
                continue
            S.append(p)
        p = [g0, g1, gs]
    S.append(p)
    return S


def _disjoint_in_order(rows: list) -> bool:
    """Each row starts at or after the largest end emitted before it: then
    ``inter = min(ends) - max(starts) <= 0`` for every pair."""
    hi = -math.inf
    for g0, g1, _ in rows:
        if g0 < hi:
            return False
        if g1 > hi:
            hi = g1
    return True


def reading_order(spans: np.ndarray) -> np.ndarray:
    """Stable reading-order sort by (start, end).

    Analog of the reference's post-NMS ``sorted(key=lambda k: [k[1], k[0]])``
    (y-then-x) ordering (DetectUtil.py:201-203) — the stable ordering
    contract every downstream stage relies on.
    """
    if spans.shape[0] == 0:
        return spans
    order = sorted(range(spans.shape[0]), key=lambda i: (spans[i, 0], spans[i, 1]))
    return spans[order]


def canonicalize(start: float, end: float) -> tuple[int, int]:
    """Canonical integer span: truncate-toward-zero like the reference's
    ``box.astype(np.int32)`` at emission (test_img.py:123), normalized so
    start <= end (sort_poly analog, DetectUtil.py:219-225)."""
    a, b = int(start), int(end)
    if a > b:
        a, b = b, a
    return a, b

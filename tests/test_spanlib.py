"""Worked-example unit tests for the span-geometry library — the CTC.py /
lanms/__main__.py hand-computable-example idiom (SURVEY.md §5.3)."""

import numpy as np
import pytest

from ocr_ray.spanlib import (
    canonicalize,
    interval_iou,
    nms_locality,
    reading_order,
    standard_nms,
    weighted_merge,
)


def test_interval_iou_basic():
    assert interval_iou(np.array([0.0, 10.0]), np.array([0.0, 10.0])) == 1.0
    assert interval_iou(np.array([0.0, 10.0]), np.array([10.0, 20.0])) == 0.0
    assert interval_iou(np.array([0.0, 10.0]), np.array([5.0, 15.0])) == pytest.approx(5 / 15)
    # invalid (empty) intervals contribute 0, like invalid polygons
    assert interval_iou(np.array([5.0, 5.0]), np.array([0.0, 10.0])) == 0.0
    assert interval_iou(np.array([10.0, 0.0]), np.array([0.0, 10.0])) == 0.0


def test_weighted_merge_matches_reference_formula():
    # reference locality_aware_nms.py:18-21: coords score-weighted; scores add
    g = np.array([0.0, 10.0, 1.0])
    p = np.array([10.0, 20.0, 3.0])
    m = weighted_merge(g.copy(), p)
    assert m[0] == pytest.approx((0 * 1 + 10 * 3) / 4)
    assert m[1] == pytest.approx((10 * 1 + 20 * 3) / 4)
    assert m[2] == 4.0


def test_standard_nms_keeps_best_and_suppresses():
    S = np.array(
        [
            [0.0, 10.0, 0.5],
            [1.0, 11.0, 0.9],   # best; overlaps row 0 heavily
            [20.0, 30.0, 0.3],  # disjoint — survives
        ]
    )
    out = standard_nms(S, 0.1)
    assert out.shape[0] == 2
    assert out[0][2] == 0.9 and out[1][2] == 0.3


def test_nms_locality_is_order_dependent():
    # adjacent overlapping proposals merge in emission order (EAST locality)
    polys = np.array(
        [
            [0.0, 10.0, 1.0],
            [0.0, 10.0, 1.0],   # exact dup -> weighted merge, score 2
            [50.0, 60.0, 1.0],  # far -> flush
        ]
    )
    out = nms_locality(polys, 0.1)
    scores = sorted(out[:, 2].tolist())
    assert scores == [1.0, 2.0]
    # the merged row keeps the averaged (= identical) coords
    merged = out[np.argmax(out[:, 2])]
    assert merged[0] == 0.0 and merged[1] == 10.0


def test_nms_locality_empty():
    assert nms_locality(np.zeros((0, 3)), 0.1).shape[0] == 0


def test_reading_order_stable():
    spans = np.array([[5.0, 9.0, 0.1], [0.0, 4.0, 0.9], [0.0, 2.0, 0.5]])
    out = reading_order(spans)
    assert out[:, 0].tolist() == [0.0, 0.0, 5.0]
    assert out[0][1] == 2.0  # (start, end) lexicographic


def test_canonicalize_truncates_toward_zero_and_orders():
    assert canonicalize(3.9, 10.2) == (3, 10)
    assert canonicalize(10.0, 3.0) == (3, 10)


def _greedy_nms_reference(S: np.ndarray, thres: float) -> np.ndarray:
    """The batched greedy loop standard_nms replaced: every kept row
    tested against every remaining one."""
    order = np.argsort(S[:, 2])[::-1]
    starts, ends = S[:, 0], S[:, 1]
    lens = ends - starts
    keep = []
    while order.size > 0:
        i = order[0]
        keep.append(i)
        rest = order[1:]
        if rest.size == 0:
            break
        inter = np.minimum(ends[rest], ends[i]) - np.maximum(starts[rest], starts[i])
        union = lens[i] + lens[rest] - inter
        valid = (lens[i] > 0) & (lens[rest] > 0) & (inter > 0) & (union != 0)
        ovr = np.where(valid, inter / np.where(union == 0, 1.0, union), 0.0)
        order = rest[ovr <= thres]
    return S[keep]


@pytest.mark.parametrize("thres", [0.0, 0.1, 0.5])
def test_standard_nms_equals_greedy_reference(thres):
    """Interval-bisection NMS keeps exactly the reference's rows, in its
    order: score ties, nested boxes, zero and negative lengths, integer
    and fractional coordinates."""
    rng = np.random.RandomState(7)
    for case in range(2000):
        n = rng.randint(0, 40)
        starts = rng.randint(0, 60, n).astype(float)
        if case % 2:
            starts += rng.rand(n)
        lens = np.where(rng.rand(n) < 0.5,
                        rng.choice([0.0, -3.0, 1.0, 2.5, 7.0, 20.0, 55.0], n),
                        rng.randint(-5, 40, n))
        scores = rng.choice([0.5, 1.0, 1.5, 2.0], n) if case % 3 else rng.rand(n)
        S = np.column_stack([starts, starts + lens, scores]).reshape(-1, 3)
        nested = S[: n // 3].copy()  # shrunk copies: nested boxes, equal scores
        nested[:, 0] += 1.0
        nested[:, 1] -= 1.0
        S = np.vstack([S, nested])
        got = standard_nms(S.copy(), thres)
        want = _greedy_nms_reference(S.copy(), thres)
        assert got.shape == want.shape and (got == want).all(), (case, S.tolist())


def test_nms_early_out_uses_running_max_end():
    # row 2 starts after row 1's (inverted) end but inside row 0: not
    # disjoint in emission order, so the full path runs and row 2, which
    # overlaps row 0 with IoU 4/12 > 0.3, is suppressed by it
    polys = [[0.0, 10.0, 2.0], [20.0, 5.0, 1.0], [6.0, 12.0, 1.0]]
    out = nms_locality(polys, 0.3)
    assert out.tolist() == [[0.0, 10.0, 2.0], [20.0, 5.0, 1.0]]

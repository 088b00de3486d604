"""Differential test: an INDEPENDENT re-implementation of the propose
chain (written directly from the spec in SURVEY.md §2 / extract.py's
docstrings, sharing no code with ocr_ray.extract) is diffed against the
production implementation on hundreds of corpus payloads.

Shared-code Ray-vs-oracle parity is blind to bugs in the shared core;
golden fixtures only cover their snapshots. This catches the rest.
Offsets/text must match exactly; scores to 1e-9 (summation order is the
one permitted difference between the implementations).
"""

import numpy as np

from ocr_ray import config as C
from ocr_ray.extract import propose_spans, score_units
from ocr_ray.segment import segment
from ocr_ray.textnorm import normalize_text


def independent_propose(units, scores):
    """Spec re-implementation, written without looking at propose_spans'
    code paths: plain sets/loops, python floats."""
    n = len(units)
    passing = [i for i in range(n) if scores[i] > C.SCORE_THRESH]
    if not passing:
        return []

    # group with <=DILATE_UNITS bridging; members = full index range
    groups = []
    cur = [passing[0], passing[0]]
    for i in passing[1:]:
        if i - cur[1] - 1 <= C.DILATE_UNITS:
            cur[1] = i
        else:
            groups.append(tuple(cur))
            cur = [i, i]
    groups.append(tuple(cur))

    # one proposal per run of consecutive members (of kept regions) sharing
    # a block: the exact block bounds, scored with each member's region sum
    # added once per member
    proposals = []
    last = None
    for lo, hi in groups:
        members = list(range(lo, hi + 1))
        if sum(units.end[i] - units.start[i] for i in members) < C.MIN_TEXT_SIZE:
            continue
        ssum = float(np.sum(np.asarray([scores[i] for i in members])))
        for i in members:
            box = (units.geo_start[i], units.geo_end[i])
            if box == last:
                gs, ge, total = proposals[-1]
                proposals[-1] = (gs, ge, ssum + total)
            else:
                proposals.append((float(box[0]), float(box[1]), ssum))
                last = box
    if not proposals:
        return []

    def iou(a, b):
        if a[1] <= a[0] or b[1] <= b[0]:
            return 0.0
        inter = min(a[1], b[1]) - max(a[0], b[0])
        if inter <= 0:
            return 0.0
        union = (a[1] - a[0]) + (b[1] - b[0]) - inter
        return inter / union if union else 0.0

    # locality-aware pass
    merged = []
    p = None
    for g in proposals:
        if p is not None and iou(g, p) > C.NMS_THRESH:
            tot = g[2] + p[2]
            p = ((g[2] * g[0] + p[2] * p[0]) / tot,
                 (g[2] * g[1] + p[2] * p[1]) / tot, tot)
        else:
            if p is not None:
                merged.append(p)
            p = g
    merged.append(p)

    # greedy standard NMS: score desc, ties -> later original index first
    order = sorted(range(len(merged)),
                   key=lambda i: (merged[i][2], i), reverse=True)
    keep = []
    while order:
        i = order.pop(0)
        keep.append(i)
        order = [j for j in order if iou(merged[i], merged[j]) <= C.NMS_THRESH]
    survivors = [merged[i] for i in keep]

    # reading order
    survivors.sort(key=lambda b: (b[0], b[1]))

    # overlap-weighted mean confidence, > BOX_THRESH
    kept = []
    for s, e, _ in survivors:
        span_len = e - s
        if span_len <= 0:
            continue
        acc = 0.0
        for us, ue, sc in zip(units.start, units.end, scores):
            ov = min(ue, e) - max(us, s)
            if ov > 0:
                acc += float(sc) * ov
        m = acc / span_len
        if m > C.BOX_THRESH:
            kept.append((s, e, m))
    if not kept:
        return []

    if len(kept) > C.MAX_SPANS_PER_TURN:
        kept = sorted(kept, key=lambda t: (-t[2], t[0], t[1]))[: C.MAX_SPANS_PER_TURN]
        kept.sort(key=lambda t: (t[0], t[1]))

    out = []
    for s, e, sc in kept:
        a, b = int(s), int(e)
        if a > b:
            a, b = b, a
        a = max(0, min(a, payload_len_holder[0]))
        b = max(0, min(b, payload_len_holder[0]))
        if b - a >= C.MIN_SPAN_LEN:
            out.append((a, b, sc))
    return out


payload_len_holder = [0]


def test_differential_propose_on_corpus():
    from ocr_ray.corpus import gen_conversation

    turns = []
    for c in range(60, 120):  # fresh convs not used by goldens
        turns.extend(gen_conversation(c))
    checked = 0
    for t in turns:
        norm = normalize_text(t["text"])
        if not norm:
            continue
        units = segment(norm)
        if not units:
            continue
        scores = score_units(units)
        payload_len_holder[0] = len(norm)
        prod = propose_spans(units, scores, len(norm))
        ref = independent_propose(units, scores)
        assert len(prod) == len(ref), (t["conv_id"], t["turn_idx"], prod, ref)
        for (ps, pe, pc_), (rs, re_, rc) in zip(prod, ref):
            assert ps == rs and pe == re_, (t["conv_id"], t["turn_idx"], prod, ref)
            assert abs(pc_ - rc) < 1e-9
        checked += 1
    assert checked > 300

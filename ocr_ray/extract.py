"""Per-turn extraction chain — the engine's semantic core.

Replays the reference inference chain (SURVEY.md §3.1, reference
test_img.py:78-132 / DetectUtil.py:127-216) over one transcript turn:

    segment -> score units -> threshold -> dilate+group regions ->
    full-block proposals per run of units sharing a block (restore) ->
    locality-aware NMS -> reading-order sort -> mean-confidence
    recompute + box filter ->
    deterministic span cap -> decode member units -> CTC collapse ->
    degenerate filter -> emit (start, end, text, score)

Every function is pure and deterministic; the pure-Python oracle
(ocr_ray.oracle) and the Ray Data stages (ocr_ray.stages) call EXACTLY
these functions, so per-turn parity is structural (SURVEY.md §7.4).

Offsets are char offsets into the NORMALIZED payload
(ocr_ray.textnorm.normalize_text).

The chain holds no object per unit: ``segment`` returns the payload's
units as parallel per-turn lists (:class:`ocr_ray.segment.Units`), and
every step reads those columns — scores are one list comprehension,
region sizes and proposals are slices, box means and decode members are
bisections of the ascending start/end lists. Beyond the score array
and NMS rows, numpy appears only where the result must be bit-exact
with it (each region's score sum is
``scores[rs:re+1].sum()``, pairwise, which ``reduceat``, cumsum
differences and Python ``sum`` miss by an ulp); turns are small (about 8
units on the ``mixed`` benchmark), so per-turn numpy elsewhere costs
more than it saves.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from . import config as C
from .segment import Units, detect_kind, segment
from .spanlib import canonicalize, nms_locality
from .textnorm import (
    ctc_collapse,
    decode_entities,
    encode_token,
    normalize_text,
)

__all__ = ["score_units", "propose_spans", "decode_span", "extract_turn"]


def score_units(units: Units) -> np.ndarray:
    """Dense unit confidence — the F_score analog (A1, SURVEY §2.3).

    score = clip(tag_weight * (0.5 + 0.5*text_density) - link_density, 0, 1);
    ignore-tagged units are masked to 0 (training-mask analog,
    reference DataPreprocess/DataGen.py:244-248). The clip is written as
    conditionals that pick what ``min(1.0, max(0.0, v))`` picks.
    """
    get_w = C.TAG_WEIGHTS.get
    dw = C.DEFAULT_TAG_WEIGHT
    raw = [
        get_w(tag, dw) * (0.5 + 0.5 * td) - ld
        for tag, td, ld in zip(units.tag, units.text_density, units.link_density)
    ]
    vals = [
        0.0 if ig or not v > 0.0 else v if v < 1.0 else 1.0
        for v, ig in zip(raw, units.ignore)
    ]
    return np.asarray(vals, dtype=np.float64)


def propose_spans(
    units: Units,
    scores: np.ndarray,
    payload_len: int,
    counters: dict[str, int] | None = None,
) -> list[tuple[int, int, float]]:
    """Threshold, group, restore, NMS, order, filter — detect_contours analog
    (reference DetectUtil.py:127-216). Returns [(start, end, score), ...] in
    stable reading order with integer canonical offsets."""
    if counters is None:
        counters = {}
    if not units:
        return []

    # threshold (DetectUtil.py:153-155: strictly greater after binarize)
    score_list = scores.tolist()
    idx = [i for i, s in enumerate(score_list) if s > C.SCORE_THRESH]
    if not idx:
        return []

    # group passing units into regions, bridging <= DILATE_UNITS non-passing
    # units (the 1x3 dilation, DetectUtil.py:144-145); region members are ALL
    # units between the first and last passing unit (filled convex hull,
    # DetectUtil.py:160-169)
    regions: list[tuple[int, int]] = []  # inclusive unit-index ranges
    rs = re_ = idx[0]
    for i in idx[1:]:
        if i - re_ - 1 <= C.DILATE_UNITS:
            re_ = i
        else:
            regions.append((rs, re_))
            rs = re_ = i
    regions.append((rs, re_))

    # per-region full-block proposals (restore_rectangle analog,
    # DetectUtil.py:171-194: every member pixel proposes a full box carrying
    # the region score SUM). A run of consecutive members shares one block,
    # so it proposes that box once, carrying the score locality NMS would
    # accumulate merging the run's identical boxes one by one (sum + acc, in
    # the same order) — but not the coordinate drift of that merge
    # ((s*g0 + acc*p0)/tot is inexact even for g == p). The region sum
    # stays numpy's pairwise sum.
    starts, ends = units.start, units.end
    geo_start, geo_end = units.geo_start, units.geo_end
    proposals: list[list[float]] = []
    box = None  # runs continue across regions: NMS sees them adjacent too
    for rs, re_ in regions:
        stop = re_ + 1
        if sum(ends[rs:stop]) - sum(starts[rs:stop]) < C.MIN_TEXT_SIZE:
            counters["drop_min_text_size"] = counters.get("drop_min_text_size", 0) + 1
            continue
        score_sum = float(scores[rs:stop].sum())
        for gs, ge in zip(geo_start[rs:stop], geo_end[rs:stop]):
            if box is not None and box[0] == gs and box[1] == ge:
                box[2] = score_sum + box[2]
            else:
                box = [float(gs), float(ge), score_sum]
                proposals.append(box)
    if not proposals:
        return []

    # locality-aware NMS in emission order, then standard NMS
    # (locality_aware_nms.py:38-58); its output order is unspecified
    boxes = nms_locality(proposals, C.NMS_THRESH)
    if boxes.shape[0] == 0:
        return []

    # stable reading order (DetectUtil.py:201-203)
    box_rows = sorted(boxes.tolist(), key=lambda r: (r[0], r[1]))

    # recompute score as the length-weighted mean unit confidence over the
    # span, counting uncovered chars as 0 — the masked cv2.mean analog
    # (DetectUtil.py:209-212) — then filter > BOX_THRESH (line 214).
    # Units are in document order and disjoint, so the ones overlapping
    # [s, e) are one index range found by bisection; the terms accumulate
    # in unit order. The overlap conditionals pick what min/max pick.
    kept: list[tuple[float, float, float]] = []
    for s, e, _ in box_rows:
        span_len = e - s
        if span_len <= 0:
            counters["drop_empty"] = counters.get("drop_empty", 0) + 1
            continue
        lo, hi = bisect_right(ends, s), bisect_left(starts, e)
        acc = 0.0
        for a, b, sc in zip(starts[lo:hi], ends[lo:hi], score_list[lo:hi]):
            acc += sc * ((e if e < b else b) - (s if s > a else a))
        mean_score = acc / span_len
        if mean_score > C.BOX_THRESH:
            kept.append((s, e, mean_score))
        else:
            counters["drop_box_thresh"] = counters.get("drop_box_thresh", 0) + 1
    if not kept:
        return []

    # deterministic span cap (max_box_num analog, DataGen.py:505-527, but
    # top-k by score instead of random sampling; drops are logged)
    if len(kept) > C.MAX_SPANS_PER_TURN:
        counters["drop_span_cap"] = counters.get("drop_span_cap", 0) + (
            len(kept) - C.MAX_SPANS_PER_TURN
        )
        kept = sorted(kept, key=lambda t: (-t[2], t[0], t[1]))[: C.MAX_SPANS_PER_TURN]
        kept = sorted(kept, key=lambda t: (t[0], t[1]))

    # canonical integer offsets + degenerate filter (test_img.py:123-125)
    out: list[tuple[int, int, float]] = []
    for s, e, sc in kept:
        a, b_ = canonicalize(s, e)
        a = max(0, min(a, payload_len))
        b_ = max(0, min(b_, payload_len))
        if b_ - a < C.MIN_SPAN_LEN:
            counters["drop_degenerate"] = counters.get("drop_degenerate", 0) + 1
            continue
        out.append((a, b_, sc))
    return out


def decode_span(
    norm_text: str,
    kind: str,
    units: Units,
    start: int,
    end: int,
    counters: dict[str, int] | None = None,
) -> str:
    """Decode one span: gather member units (RoIRotate crop analog, A2),
    order them — pdfish by (page, y, x) reading order (O3 analog,
    DetectUtil.py:169), others by document order — project tokens onto the
    alphabet (M11), truncate to the decode window (max_box_width analog),
    CTC-collapse (A5, Module/RecognitionLoss.py:33-38), join with spaces.

    The members (units overlapping ``[start, end)``) are one index range
    found by bisection. Their clipped slices are joined with spaces and
    decoded as one text: entity decoding and ``split`` never cross a
    space, so this equals decoding and splitting each slice. The window
    cuts raw tokens before projection; ``encode_token`` maps tokens 1:1,
    so that equals cutting projected ones."""
    if counters is None:
        counters = {}
    starts, ends = units.start, units.end
    lo, hi = bisect_right(ends, start), bisect_left(starts, end)
    if kind == C.PAYLOAD_PDFISH:
        page, y, x = units.page, units.y, units.x
        order = sorted(range(lo, hi), key=lambda i: (page[i], y[i], x[i], starts[i]))
        members = [(starts[i], ends[i]) for i in order]
    else:
        members = zip(starts[lo:hi], ends[lo:hi])
    # each member clipped to [start, end)
    text = " ".join(
        [
            norm_text[(start if start > a else a) : (end if end < b else b)]
            for a, b in members
        ]
    )
    if kind == C.PAYLOAD_HTML:
        text = decode_entities(text)
    tokens = text.split()
    if len(tokens) > C.MAX_DECODE_TOKENS:
        counters["drop_window_tokens"] = counters.get("drop_window_tokens", 0) + (
            len(tokens) - C.MAX_DECODE_TOKENS
        )
        del tokens[C.MAX_DECODE_TOKENS :]
    tokens = list(map(encode_token, tokens))
    return " ".join(ctc_collapse(tokens, C.DECODER_BLANKS))


def extract_turn(
    raw_text: str, counters: dict[str, int] | None = None
) -> list[dict]:
    """Full per-turn chain. Returns span dicts in stable reading order:
    {span_idx, start, end, text, score} with offsets into the normalized
    payload (FIXTURES.md §2 golden-span schema)."""
    if counters is None:
        counters = {}
    norm = normalize_text(raw_text)
    if not norm:
        return []
    kind = detect_kind(norm)
    units = segment(norm, kind)
    if not units:
        return []
    scores = score_units(units)
    spans = propose_spans(units, scores, len(norm), counters)
    out = []
    for i, (s, e, sc) in enumerate(spans):
        text = decode_span(norm, kind, units, s, e, counters)
        out.append({"span_idx": i, "start": s, "end": e, "text": text, "score": sc})
    return out

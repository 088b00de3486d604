"""Property-based tests (hypothesis): the extraction chain never crashes,
always emits valid offsets, and is deterministic on arbitrary input; the
span algebra keeps its invariants on arbitrary proposals."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ocr_ray.extract import extract_turn
from ocr_ray.spanlib import interval_iou, nms_locality
from ocr_ray.textnorm import ctc_collapse, normalize_text

# text including markup chars, unicode, zero-width, newlines
payloads = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),  # no lone surrogates
    max_size=400,
)


@settings(max_examples=200, deadline=None)
@given(payloads)
def test_extract_turn_total_and_valid(text):
    spans = extract_turn(text)
    norm = normalize_text(text)
    prev = (-1, -1)
    for s in spans:
        assert 0 <= s["start"] <= s["end"] <= len(norm)
        assert s["end"] - s["start"] >= 5  # MIN_SPAN_LEN
        assert 0.0 <= s["score"] <= 64.0 * 1.0 + 1  # score sums bounded by units
        assert (s["start"], s["end"]) >= prev  # stable reading order
        prev = (s["start"], s["end"])


@settings(max_examples=100, deadline=None)
@given(payloads)
def test_extract_turn_deterministic(text):
    assert extract_turn(text) == extract_turn(text)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0, 1000, allow_nan=False),
            st.floats(0, 1000, allow_nan=False),
            st.floats(0.01, 10, allow_nan=False),
        ),
        max_size=30,
    )
)
def test_nms_locality_invariants(rows):
    polys = np.array([[min(a, b), max(a, b), s] for a, b, s in rows]).reshape(-1, 3)
    out = nms_locality(polys.copy(), 0.1)
    # survivors pairwise overlap at most the threshold
    for i in range(out.shape[0]):
        for j in range(i + 1, out.shape[0]):
            assert interval_iou(out[i], out[j]) <= 0.1 + 1e-12
    # total score is conserved-or-reduced (merges add, suppression removes)
    if polys.shape[0]:
        assert out[:, 2].sum() <= polys[:, 2].sum() + 1e-9


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "c", ""]), max_size=40))
def test_ctc_collapse_matches_reference_semantics(tokens):
    # NOTE: collapse is deliberately NOT idempotent — a blank separating two
    # equal tokens yields "a a" (CTC keeps blank-separated repeats distinct,
    # Module/RecognitionLoss.py:33-38)
    once = ctc_collapse(tokens)
    assert "" not in once
    # reference implementation: itertools.groupby then blank drop
    import itertools

    expected = [k for k, _ in itertools.groupby(tokens) if k != ""]
    assert once == expected


@settings(max_examples=100, deadline=None)
@given(payloads)
def test_normalize_idempotent(text):
    n1 = normalize_text(text)
    assert normalize_text(n1) == n1


def test_adversarial_fragment_fuzz():
    """Deterministic tag-soup fuzz: markup fragments, broken pdfish
    records, zero-width chars, ignore tags, entities — the chain must stay
    total with valid offsets."""
    import random

    rng = random.Random(123)
    fragments = [
        "<p>", "</p>", "<a href='x'>", "</a>", "<nav>", "</nav>", "<script>",
        "</script>", "<!--", "-->", "<br/>", "%PDF", "\nL 0 100 10 ",
        "L 1 -5 3 x", "&amp;", "&#39;", "﻿", "‍", "*", "###", "|", "\r\n",
        "\x00", "🙂", "字", "<div", ">", "<", "word ", "a" * 50 + " ", " ",
        "\n\n", "L 999999999999 2 3 t",
        # numeric/hex entity + tag-soup edge fragments (round-2 robustness)
        "&#8217;", "&#x2019;", "&#xD800;", "&#99999999;", "&#x;", "&#;",
        "<![CDATA[", "]]>", "<![CDATA[ raw <p> junk ]]>",
        '<div title="a>b">', "<div title='a>b'>", '<p class="unterminated>',
        '<a href="x" broken', "<div/ >", '"', "'",
    ]
    for _ in range(1000):
        payload = "".join(rng.choice(fragments) for _ in range(rng.randint(0, 40)))
        spans = extract_turn(payload)
        norm = normalize_text(payload)
        for s in spans:
            assert 0 <= s["start"] <= s["end"] <= len(norm)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_seg_searchsorted_matches_per_segment_loop(data):
    """The one-lexsort segmented searchsorted (shared by the RANGE window
    and the band join) == np.searchsorted run per segment, both sides,
    arbitrary duplicate-heavy values and targets."""
    from ocr_ray.pipelines.streaming import seg_searchsorted

    n_segs = data.draw(st.integers(1, 6))
    seg_lens = [data.draw(st.integers(1, 12)) for _ in range(n_segs)]
    seg_id = np.repeat(np.arange(n_segs, dtype=np.int64), seg_lens)
    n = len(seg_id)
    # sorted-within-segment values from a tiny domain -> many duplicates
    vals = np.concatenate([
        np.sort(
            np.array(
                data.draw(
                    st.lists(st.integers(-5, 5), min_size=ln, max_size=ln)
                ),
                dtype=np.int64,
            )
        )
        for ln in seg_lens
    ])
    targets = np.array(
        data.draw(st.lists(st.integers(-7, 7), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    for side in ("left", "right"):
        got = seg_searchsorted(seg_id, vals, targets, side)
        starts = np.flatnonzero(
            np.concatenate([[True], seg_id[1:] != seg_id[:-1]])
        )
        ends = np.append(starts[1:], n)
        want = np.empty(n, dtype=np.int64)
        for s, e in zip(starts, ends):
            want[s:e] = np.searchsorted(vals[s:e], targets[s:e], side=side)
        np.testing.assert_array_equal(got, want, err_msg=side)


# ---- merge-rank window bounds (banded interval join kernel) ---------------

import numpy as np

win_cases = st.tuples(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 20)),
             min_size=0, max_size=40),   # build rows (user, ts) — coarse ts
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 20)),
             min_size=1, max_size=25),   # probes
    st.integers(1, 8),                   # window width
)


@given(win_cases)
@settings(max_examples=300, deadline=None)
def test_window_bounds_matches_bruteforce(case):
    """lo/hi from the merge rank == nested-loop counts, under heavy
    (user, ts) ties and every boundary coincidence hypothesis finds."""
    from ocr_ray.pipelines.streaming import window_bounds

    build, probes, w = case
    build = sorted(build)  # user-major (user, ts)
    cu = np.array([u for u, _ in build], dtype=np.int64)
    cts = np.array([t for _, t in build], dtype=np.int64)
    pu = np.array([u for u, _ in probes], dtype=np.int64)
    pts = np.array([t for _, t in probes], dtype=np.int64)
    lo, hi = window_bounds(cu, cts, pu, pts, w)
    for i in range(len(probes)):
        in_win = (cu == pu[i]) & (cts >= pts[i] - w) & (cts < pts[i])
        assert hi[i] - lo[i] == in_win.sum()
        # the [lo, hi) slice is exactly the in-window rows
        assert set(np.flatnonzero(in_win)) == set(range(lo[i], hi[i]))


@settings(max_examples=25, deadline=None)
@given(
    a=st.sets(st.integers(0, 1_000_000), max_size=30),
    b=st.sets(st.integers(0, 1_000_000), max_size=30),
)
def test_kmv_overlap_exact_branch(ray_session, a, b):
    """Below-k sketches ARE the sets: every figure must be exact for any
    pair of small sets (hypothesis over random id sets, incl. empties)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ocr_ray.functions.sketch import kmv_overlap

    df = pd.DataFrame({
        "event_type": ["pa"] * len(a) + ["pb"] * len(b),
        "user_id": np.array(sorted(a) + sorted(b), dtype=np.int64),
    })
    r = kmv_overlap(rd.from_pandas(df) if len(df) else
                    rd.from_pandas(pd.DataFrame(
                        {"event_type": pd.Series([], dtype=str),
                         "user_id": pd.Series([], dtype="int64")})),
                    "event_type", "user_id", "pa", "pb").iloc[0]
    assert r["approx_a"] == len(a) and r["approx_b"] == len(b)
    assert r["approx_union"] == len(a | b)
    assert r["approx_inter"] == len(a & b)


_markup = st.lists(
    st.sampled_from(list("ab <>/=\"'!-[]&;#\n\t") + [
        "<p>", "</p>", "<div>", "</div>", "<a>", "</a>", "<br/>", "<!--",
        "-->", "<script>", "</script>", "<![CDATA[", "]]>", '<p title="a>b">']),
    max_size=60,
).map("".join)
_pdf_lines = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 999), st.integers(0, 99),
              st.text(alphabet=st.sampled_from(list("ab \t*#")), max_size=12),
              st.booleans()),
    max_size=12,
)


def _check_document_order(units):
    bounds = list(zip(units.start, units.end))
    for (us, ue), (vs, ve) in zip(bounds, bounds[1:]):
        assert us < ue <= vs, (us, ue, vs, ve)
    if bounds:
        assert bounds[-1][0] < bounds[-1][1]


@settings(max_examples=200, deadline=None)
@given(payloads, _markup, _pdf_lines)
def test_segment_units_in_document_order(plain, html, pdf):
    """Units are disjoint and ascending for every payload kind: the
    precondition of every bisection over unit starts/ends."""
    from ocr_ray.segment import segment

    _check_document_order(segment(normalize_text(plain), "plain"))
    _check_document_order(segment(normalize_text(html), "html"))
    lines = [f"L {p} {y} {x} {t}" if rec else t for p, y, x, t, rec in pdf]
    _check_document_order(segment("%PDF\n" + "\n".join(lines), "pdfish"))


_coord = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
_score = st.floats(0.01, 10, allow_nan=False)
_thres = st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0])


@st.composite
def _disjoint_in_order_rows(draw):
    """Rows each starting at or after every earlier row's end; empty and
    inverted rows included, so the running max end (not the previous
    row's end) is what keeps them disjoint."""
    rows = []
    hi = draw(_coord)
    for _ in range(draw(st.integers(1, 30))):
        s = hi + draw(st.floats(0, 50, allow_nan=False))
        e = s + draw(st.floats(-20, 50, allow_nan=False))
        rows.append([s, e, draw(_score)])
        hi = max(hi, e)
    return rows


def _full_nms(rows, thres):
    from ocr_ray.spanlib import _locality_merge, standard_nms

    return standard_nms(np.array(_locality_merge(rows, thres)), thres)


@settings(max_examples=300, deadline=None)
@given(_disjoint_in_order_rows(), _thres)
def test_nms_early_out_equals_full_path(rows, thres):
    """Rows disjoint in emission order all survive, and they are exactly
    the full merge + standard_nms survivors (output order is unspecified,
    so the rows compare sorted)."""
    from ocr_ray.spanlib import _disjoint_in_order

    assert _disjoint_in_order(rows)
    got = sorted(nms_locality([list(r) for r in rows], thres).tolist())
    assert got == sorted(rows)
    assert got == sorted(_full_nms(rows, thres).tolist())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_coord, _coord, _score), min_size=2, max_size=30),
       _thres)
def test_nms_overlapping_rows_take_full_path(rows, thres):
    from hypothesis import assume

    from ocr_ray.spanlib import _disjoint_in_order

    rows = [[min(a, b), max(a, b), s] for a, b, s in rows]
    assume(not _disjoint_in_order(rows))
    assert np.array_equal(nms_locality(rows, thres), _full_nms(rows, thres))


@settings(max_examples=100, deadline=None)
@given(_disjoint_in_order_rows())
def test_nms_negative_threshold_takes_full_path(rows):
    # below 0 even IoU 0 merges and suppresses: no early-out
    assert np.array_equal(nms_locality(rows, -0.1), _full_nms(rows, -0.1))

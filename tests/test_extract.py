"""Operator-level conformance tests for the per-turn extraction chain
(the DetectUtil.py golden-fixture idiom, SURVEY.md §5.2)."""

import numpy as np

from ocr_ray import config as C
from ocr_ray.extract import (
    decode_span,
    extract_turn,
    propose_spans,
    score_units,
)
from ocr_ray.segment import detect_kind, segment


def test_detect_kind():
    assert detect_kind("%PDF\nL 0 1 2 x") == "pdfish"
    assert detect_kind("<p>hello</p>") == "html"
    assert detect_kind("plain words") == "plain"


def test_segment_plain_paragraph_geometry():
    text = "alpha beta\ngamma delta\n\nlast line"
    units = segment(text, "plain")
    assert [text[s:e] for s, e in zip(units.start, units.end)] == [
        "alpha beta", "gamma delta", "last line"]
    # first paragraph: two lines share the paragraph geometry
    assert units.geo_start[:2] == [0, 0] and units.geo_end[:2] == [22, 22]
    assert units.geo_start[2] == units.start[2]


def test_segment_html_block_stack_and_links():
    text = '<nav><a href="/x">home</a></nav><main><p>body words here</p></main>'
    units = segment(text, "html")
    tags = list(zip(units.tag, units.link_density))
    assert ("nav", 1.0) in tags       # link text inside nav
    assert ("p", 0.0) in tags
    i = units.tag.index("p")
    assert text[units.start[i]:units.end[i]] == "body words here"


def test_segment_pdfish_records_and_blocks():
    text = "%PDF\nL 0 120 10 first words\nL 0 100 10 second words\nL 1 100 10 next page"
    units = segment(text, "pdfish")
    assert len(units) == 3
    assert units.page[0] == 0 and units.y[0] == 120
    # page-0 block geometry spans both page-0 records
    assert units.geo_start[0] == units.geo_start[1]
    assert units.geo_start[2] == units.start[2]  # page 1 is its own block


def test_scores_boilerplate_below_threshold():
    text = '<nav><a href="/x">home page link</a></nav><main><p>real content words flow nicely</p></main>'
    units = segment(text, "html")
    scores = score_units(units)
    by_tag = dict(zip(units.tag, scores))
    assert by_tag["nav"] <= C.SCORE_THRESH
    assert by_tag["p"] > C.SCORE_THRESH


def test_ignore_units_masked():
    # reference DataGen.py:80-84 ignore-tag analog
    units = segment("good content line here\n### ignored heading\nmore good words", "plain")
    scores = score_units(units)
    ign = [s for ig, s in zip(units.ignore, scores) if ig]
    assert ign and all(s == 0.0 for s in ign)


def test_propose_min_text_size():
    text = "tiny"
    units = segment(text, "plain")
    counters: dict = {}
    spans = propose_spans(units, score_units(units), len(text), counters)
    assert spans == []
    assert counters.get("drop_min_text_size", 0) == 1


def test_propose_degenerate_filter():
    # region long enough for MIN_TEXT_SIZE but canonical span below MIN_SPAN_LEN
    # cannot be produced by construction here; instead assert spans all >= MIN_SPAN_LEN
    text = "plenty of words in this single line payload"
    units = segment(text, "plain")
    spans = propose_spans(units, score_units(units), len(text))
    assert spans and all(e - s >= C.MIN_SPAN_LEN for s, e, _ in spans)


def test_propose_span_cap_deterministic():
    # 100 separated paragraphs -> cap at MAX_SPANS_PER_TURN, top by score
    text = "\n\n".join(f"paragraph number {i} content words" for i in range(100))
    units = segment(text, "plain")
    counters: dict = {}
    spans = propose_spans(units, score_units(units), len(text), counters)
    assert len(spans) == C.MAX_SPANS_PER_TURN
    assert counters["drop_span_cap"] == 100 - C.MAX_SPANS_PER_TURN
    # reading order preserved after cap
    starts = [s for s, _, _ in spans]
    assert starts == sorted(starts)


def test_decode_pdfish_reading_order():
    text = "%PDF\nL 0 120 10 second words\nL 0 100 10 first words"
    units = segment(text, "pdfish")
    spans = propose_spans(units, score_units(units), len(text))
    assert len(spans) == 1
    s, e, _ = spans[0]
    out = decode_span(text, "pdfish", units, s, e)
    assert out == "first words second words"


def test_decode_window_truncation():
    text = " ".join(f"w{i}" for i in range(C.MAX_DECODE_TOKENS + 50))
    counters: dict = {}
    spans = extract_turn(text, counters)
    assert spans
    assert counters.get("drop_window_tokens", 0) >= 50
    assert len(spans[0]["text"].split()) <= C.MAX_DECODE_TOKENS


def test_extract_turn_empty_and_edge():
    assert extract_turn("") == []
    assert extract_turn("  \n \n ") == []
    # BOM-laden payload: offsets are into the NORMALIZED text
    spans = extract_turn("﻿hello world of content here")
    assert spans and spans[0]["start"] == 0
    assert spans[0]["text"].startswith("hello world")


def test_extract_turn_collapses_repeats():
    spans = extract_turn("batch batch batch stream stream merge")
    assert spans[0]["text"] == "batch stream merge"


def test_html_comments_and_script_excluded():
    text = (
        "<!-- nav comment words -->"
        "<script>var hidden = 'secret words here';</script>"
        "<style>.x { color: red }</style>"
        "<p>visible content words flow</p>"
    )
    spans = extract_turn(text)
    assert len(spans) == 1
    assert spans[0]["text"] == "visible content words flow"


def test_html_self_closing_and_entities():
    text = "<p>alpha beta<br/>gamma &amp; delta &lt;tag&gt; &quot;x&quot;</p>"
    spans = extract_turn(text)
    assert len(spans) == 1
    # entities decoded in the output text; <br/> separates tokens without
    # splitting the block or leaking into them
    assert spans[0]["text"] == 'alpha beta gamma & delta <tag> "x"'


def test_html_unclosed_script_tail():
    text = "<p>good words in the block</p><script>var broken = "
    spans = extract_turn(text)
    assert len(spans) == 1
    assert spans[0]["text"] == "good words in the block"


def test_html_numeric_entities_decoded():
    text = "<p>it&#8217;s the caf&#xE9; &#X2019; mark &#39;q&#39;</p>"
    spans = extract_turn(text)
    assert len(spans) == 1
    # decimal, hex (either case) and &#39; all decode; chars outside the
    # alphabet are then silently projected away by the encoder (M11)
    assert "&#" not in spans[0]["text"]
    assert "it" in spans[0]["text"] and "caf" in spans[0]["text"]


def test_entity_decode_total_on_hostile_refs():
    from ocr_ray.textnorm import decode_entities

    assert decode_entities("it&#8217;s") == "it’s"
    assert decode_entities("a&#x2019;b") == "a’b"
    assert decode_entities("ok &#xD800; bad") == "ok &#xD800; bad"  # surrogate
    assert decode_entities("n &#99999999; o") == "n &#99999999; o"  # overflow
    assert decode_entities("&#;&#x;&unknown;") == "&#;&#x;&unknown;"
    assert decode_entities("plain text") == "plain text"


def test_html_gt_inside_quoted_attribute():
    # the '>' inside the quoted title must NOT terminate the tag: exactly
    # one block with only the real content
    text = '<p title="a>b">visible content words flow</p>'
    spans = extract_turn(text)
    assert len(spans) == 1
    assert spans[0]["text"] == "visible content words flow"


def test_html_cdata_opaque():
    text = "<![CDATA[ <p>raw junk words</p> ]]><p>visible content words flow</p>"
    spans = extract_turn(text)
    assert len(spans) == 1
    assert spans[0]["text"] == "visible content words flow"


def test_html_unterminated_quote_falls_back():
    # unterminated quote degrades to the first-'>' rule instead of
    # swallowing the rest of the document
    text = '<p class="oops>visible content words flow</p>'
    spans = extract_turn(text)
    assert len(spans) == 1
    assert spans[0]["text"] == "visible content words flow"


def test_megabyte_single_payload():
    """A ~1 MB single turn stays total and bounded: decode window caps at
    MAX_DECODE_TOKENS, span cap at MAX_SPANS_PER_TURN, offsets valid —
    and the per-turn chain finishes in bounded time (no quadratic blowup)."""
    import time

    from ocr_ray import config as C

    words = ("content words flow here nicely " * 36000).split()  # ~180k tokens
    # paragraph-structured plain payload ~1 MB
    text = "\n\n".join(" ".join(words[i : i + 120]) for i in range(0, len(words), 120))
    assert len(text) > 1_000_000
    t0 = time.perf_counter()
    spans = extract_turn(text)
    wall = time.perf_counter() - t0
    assert wall < 10.0
    assert 1 <= len(spans) <= C.MAX_SPANS_PER_TURN
    for s in spans:
        assert 0 <= s["start"] <= s["end"] <= len(text)
        assert len(s["text"].split()) <= C.MAX_DECODE_TOKENS
    # html flavor with the quote-aware tokenizer on a big doc
    html = "<div>" + "<p>" + text[:500_000].replace("\n\n", "</p><p>") + "</p></div>"
    spans_h = extract_turn(html)
    assert len(spans_h) <= C.MAX_SPANS_PER_TURN
    for s in spans_h:
        assert len(s["text"].split()) <= C.MAX_DECODE_TOKENS


def test_scores_deterministic_array():
    units = segment("some words here to score", "plain")
    s1 = score_units(units)
    s2 = score_units(units)
    assert np.array_equal(s1, s2)


def test_plain_paragraph_span_starts_at_block_start():
    # the paragraph's three lines propose the same block [5, 33); merging
    # those identical boxes by weighted average once drifted to 4.99...,
    # truncated to 4
    text = "cya\n\n; column y2 row\n& plan\ntable"
    units = segment(text, "plain")
    assert set(zip(units.geo_start[1:], units.geo_end[1:])) == {(5, 33)}
    spans = extract_turn(text)
    assert [(s["start"], s["end"]) for s in spans] == [(5, 33)]
    assert spans[0]["text"] == "; column y2 row & plan table"


def test_paragraph_split_by_ignore_lines_starts_at_block_start():
    # two score-0 "###" lines split the paragraph into two regions that
    # propose the same block [5, 68); merging the two regions' boxes by
    # weighted average once drifted the start to 4
    text = "cya\n\n@ . alpha the\n... x3 ;\n### alpha q\n### q plan\ny2\nab1 alpha plan"
    units = segment(text, "plain")
    assert units.ignore[1:] == [False, False, True, True, False, False]
    assert set(zip(units.geo_start[1:], units.geo_end[1:])) == {(5, 68)}
    spans = extract_turn(text)
    assert [(s["start"], s["end"]) for s in spans] == [(5, 68)]


def test_html_spans_never_end_in_a_partial_entity():
    # a span end one char short of its block cut "&quot;" to "&quot"
    # (conv-00000372 turn 1 ended in `"customer&quot`)
    import re

    from ocr_ray.corpus import gen_conversation
    from ocr_ray.textnorm import normalize_text

    partial = re.compile(r"&[#0-9A-Za-z]*$")
    html_spans = 0
    for c in range(400):
        for t in gen_conversation(c, 1):
            norm = normalize_text(t["text"] or "")
            if not norm or detect_kind(norm) != "html":
                continue
            for s in extract_turn(t["text"]):
                html_spans += 1
                assert not partial.search(s["text"]), (t["conv_id"], t["turn_idx"], s)
    assert html_spans > 1000


def test_decode_window_counts_tokens_after_entity_decoding():
    # "a&nbsp;b" is one raw token but two once &nbsp; decodes to U+00A0,
    # so the window (384) cuts right after "a": 386 tokens, 2 dropped
    words = [f"w{i}" for i in range(383)]
    text = "<p>" + " ".join(words) + " a&nbsp;b c</p>"
    counters: dict = {}
    spans = extract_turn(text, counters)
    assert [(s["start"], s["end"]) for s in spans] == [(3, len(text) - 4)]
    assert spans[0]["text"] == " ".join(words + ["a"])
    assert counters["drop_window_tokens"] == 2

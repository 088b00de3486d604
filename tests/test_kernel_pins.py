"""Pinned outputs of the per-turn extraction kernel, Ray-free.

- A sha256 over every span row and per-turn drop counter of
  ``extract_turn`` on the turns of ``gen_conversation(c, 7)``, c < 3000
  (19,109 turns of every payload kind).
- The html tokenizer's unit columns on edge-case markup: a quoted ``>``
  in an attribute, an unterminated quote, CDATA, comments, self-closing
  and upper-case tags, stray closers, ``<a>`` underflow, script/style
  skipping and ignore-tagged runs.

Both expected values were recorded from the object-per-unit kernel that
the unit columns replaced, so any change of output fails here.
"""

import hashlib

import pytest

from ocr_ray.corpus import gen_conversation
from ocr_ray.extract import extract_turn
from ocr_ray.segment import segment

KERNEL_DIGEST = "da1a293bcc01f58303e4124f709b26bb45ea2013aa295608b36c32b14ceb88ca"


def test_extract_turn_digest():
    h = hashlib.sha256()
    turns = 0
    for c in range(3000):
        for t in gen_conversation(c, 7):
            counters: dict[str, int] = {}
            spans = extract_turn(t["text"], counters)
            rows = [(s["span_idx"], s["start"], s["end"], s["text"], s["score"].hex())
                    for s in spans]
            h.update(repr((t["conv_id"], t["turn_idx"], rows,
                           sorted(counters.items()))).encode())
            turns += 1
    assert turns == 19109
    assert h.hexdigest() == KERNEL_DIGEST


COLUMNS = ("start", "end", "geo_start", "geo_end", "tag", "text_density",
           "link_density", "ignore", "page", "y", "x")

HTML_CASES = {
    "quoted_gt": (
        '<div title="a>b">inside, words!</div><p>after &amp; more</p>', [
            (17, 31, 17, 31, 'div', 0.8571428571428571, 0.0, False, 0, 0, 0),
            (40, 56, 40, 56, 'p', 0.875, 0.0, False, 0, 0, 0),
        ]),
    "unterminated_quote": (
        '<p class="x>first part</p><p>second: part here</p>', [
            (12, 22, 12, 22, 'p', 1.0, 0.0, False, 0, 0, 0),
            (29, 46, 29, 46, 'p', 0.9411764705882353, 0.0, False, 0, 0, 0),
        ]),
    "cdata": (
        '<p>before <![CDATA[<p>not a tag</p>]]> after</p>', [
            (3, 9, 3, 44, 'p', 1.0, 0.0, False, 0, 0, 0),
            (39, 44, 3, 44, 'p', 1.0, 0.0, False, 0, 0, 0),
        ]),
    "comment": (
        '<div>one<!-- <p>hidden</p> -->two</div>', [
            (5, 8, 5, 33, 'div', 1.0, 0.0, False, 0, 0, 0),
            (30, 33, 5, 33, 'div', 1.0, 0.0, False, 0, 0, 0),
        ]),
    "br_self_closing": (
        '<p>line one<br/>line two<BR />three</p>', [
            (3, 11, 3, 35, 'p', 1.0, 0.0, False, 0, 0, 0),
            (16, 24, 3, 35, 'p', 1.0, 0.0, False, 0, 0, 0),
            (30, 35, 3, 35, 'p', 1.0, 0.0, False, 0, 0, 0),
        ]),
    "upper_case": (
        '<DIV><P>Upper Case</P></DIV><Nav>menu</NAV>', [
            (8, 18, 8, 18, 'p', 1.0, 0.0, False, 0, 0, 0),
            (33, 37, 33, 37, 'nav', 1.0, 0.0, False, 0, 0, 0),
        ]),
    "stray_closer": (
        '</p></div>orphan text<p>kept</p></li>tail', [
            (10, 21, 10, 41, 'div', 1.0, 0.0, False, 0, 0, 0),
            (24, 28, 24, 28, 'p', 1.0, 0.0, False, 0, 0, 0),
            (37, 41, 10, 41, 'div', 1.0, 0.0, False, 0, 0, 0),
        ]),
    "a_underflow": (
        '</a></a><p>x <a href="/">link</a> y</p></a>z', [
            (11, 12, 11, 35, 'p', 1.0, 0.0, False, 0, 0, 0),
            (25, 29, 11, 35, 'p', 1.0, 1.0, False, 0, 0, 0),
            (34, 35, 11, 35, 'p', 1.0, 0.0, False, 0, 0, 0),
            (43, 44, 43, 44, 'div', 1.0, 0.0, False, 0, 0, 0),
        ]),
    "script_style": (
        '<p>seen</p><script>var x = "<p>no</p>";</script>'
        '<style>p{}</style><p>also seen</p>', [
            (3, 7, 3, 7, 'p', 1.0, 0.0, False, 0, 0, 0),
            (69, 78, 69, 78, 'p', 1.0, 0.0, False, 0, 0, 0),
        ]),
    "ignore_runs": (
        '<ul><li>### heading</li><li> * </li><li>item (two)</li></ul>', [
            (8, 19, 8, 19, 'li', 0.7272727272727273, 0.0, True, 0, 0, 0),
            (29, 30, 29, 30, 'li', 0.0, 0.0, True, 0, 0, 0),
            (40, 50, 40, 50, 'li', 0.8, 0.0, False, 0, 0, 0),
        ]),
}


@pytest.mark.parametrize("name", sorted(HTML_CASES))
def test_html_tokenizer_edge_cases(name):
    text, want = HTML_CASES[name]
    units = segment(text, "html")
    got = list(zip(*(getattr(units, c) for c in COLUMNS)))
    assert got == want
    assert len(units) == len(want)

"""Payload segmentation: raw turn payload -> dense candidate units.

This is the engine analog of the reference's dense score/geometry maps
(SURVEY.md §1.2): every payload is decomposed into candidate units (text
runs / lines), each carrying

- ``(start, end)`` — exact char offsets of the unit's text into the
  normalized payload (the "pixel coordinate"),
- ``(geo_start, geo_end)`` — the full span of the unit's enclosing content
  block (the per-pixel "distances to the box edges" geometry,
  reference DataPreprocess/DataGen.py:281-291),
- features for the scorer: tag, text_density, link_density, ignore flag
  (ignore-tag analog of ``*``/``###`` regions, reference
  DataPreprocess/DataGen.py:80-84).

Three payload kinds (FIXTURES.md §1): ``plain`` prose, ``html`` boilerplate-
wrapped markup, ``pdfish`` embedded layout records. Kind detection is
deterministic from the payload itself.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .config import PAYLOAD_HTML, PAYLOAD_PDFISH, PAYLOAD_PLAIN

__all__ = ["Unit", "detect_kind", "segment", "PDF_MAGIC"]

PDF_MAGIC = "%PDF"

# Block-level tags recognized by the html-ish tokenizer; anything else keeps
# the enclosing block. <a> is inline and toggles link state.
_BLOCK_TAGS = {
    "main", "article", "p", "h1", "h2", "li", "ul", "div",
    "blockquote", "nav", "header", "footer", "aside", "body", "html",
}
# quote-aware single-pass tokenizer, ordered alternatives:
#   comment | CDATA | tag with quote-aware attribute zone | tag with the
#   plain first-'>' attribute zone (fallback an unterminated quote degrades
#   to). No exponential backtracking: at any attribute-zone position
#   exactly one alternative can match (the char classes exclude quotes),
#   so failure unwinds linearly into the fallback branch.
# A '>' inside a quoted attribute value does not end the tag
# (<div title="a>b"> is one tag) and <![CDATA[...]]> is one opaque
# construct; an UNTERMINATED quote degrades to the first-'>' rule instead
# of swallowing the document. Comments and CDATA match with every group
# None; a self-closing tag (<br/>) ends in "/>".
_HTML_TOKEN_RE = re.compile(
    r"<!--.*?-->"
    r"|<!\[CDATA\[.*?\]\]>"
    r"|<(?P<c1>/?)(?P<n1>[a-zA-Z][a-zA-Z0-9]*)"
    r"(?:[\s/](?:\"[^\"]*\"|'[^']*'|[^>\"'])*)?>"
    r"|<(?P<c2>/?)(?P<n2>[a-zA-Z][a-zA-Z0-9]*)(?:[\s/][^>]*)?>",
    re.S,
)
# content inside these is boilerplate machinery, never candidate text
_SKIP_CONTENT_TAGS = {"script", "style"}
_HTML_HINT_RE = re.compile(r"<[a-zA-Z][^>]*>")
# pdfish line record: "L <page> <y> <x> <text...>"
_PDF_LINE_RE = re.compile(r"^L (\d+) (\d+) (\d+) (.*)$")

# Ignore-tag analog (reference DataGen.py:80-84): a unit whose stripped text
# is "*" or begins with "###" is tagged ignore and masked out of proposals.
_IGNORE_PREFIX = "###"
_IGNORE_EXACT = "*"


@dataclass(slots=True)
class Unit:
    start: int          # char offset of unit text (inclusive), post-trim
    end: int            # char offset (exclusive)
    geo_start: int      # enclosing block content start ("distance to edge" geometry)
    geo_end: int        # enclosing block content end
    tag: str            # enclosing block tag ("p", "nav", ... ; "plain"/"pdfline")
    text_density: float
    link_density: float
    ignore: bool
    page: int = 0       # pdfish reading-order keys (0 otherwise)
    y: int = 0
    x: int = 0


def detect_kind(text: str) -> str:
    if text.startswith(PDF_MAGIC):
        return PAYLOAD_PDFISH
    if _HTML_HINT_RE.search(text):
        return PAYLOAD_HTML
    return PAYLOAD_PLAIN


import string as _string

# delete-table for the "good" chars: len(s.translate(...)) counts the REST
_GOOD_DEL = {ord(c): None for c in _string.ascii_letters + _string.digits + " "}


def _density(s: str) -> float:
    """Fraction of alphanumeric+space chars — the unit text-density feature.

    Ascii fast path (C-speed translate deleting the good set, no per-char
    Python) is exact: ascii isalnum() == [0-9a-zA-Z]; the unicode fall-back
    keeps isalnum() semantics for non-ascii payloads."""
    if not s:
        return 0.0
    if s.isascii():
        return (len(s) - len(s.translate(_GOOD_DEL))) / len(s)
    good = sum(1 for c in s if c.isalnum() or c == " ")
    return good / len(s)


def _mk_unit(text: str, a: int, b: int, tag: str, in_link: bool,
             page: int = 0, y: int = 0, x: int = 0) -> Unit | None:
    # str.strip() trims the same isspace() set a char-by-char scan would
    raw = text[a:b]
    run = raw.lstrip()
    a += len(raw) - len(run)
    run = run.rstrip()
    if not run:
        return None
    b = a + len(run)
    ignore = run == _IGNORE_EXACT or run.startswith(_IGNORE_PREFIX)
    return Unit(
        a, b, a, b, tag,
        _density(run),
        1.0 if in_link else 0.0,
        ignore, page, y, x,
    )


def _segment_html(text: str) -> list[Unit]:
    """Tokenize html-ish markup into text-run units with a block-tag stack.

    Analog of rasterizing the payload into the dense score/geometry grid:
    each inter-tag text run becomes one unit; its geometry is filled in a
    second pass as the union of runs in the same enclosing block instance.
    """
    units: list[Unit] = []
    block_ids: list[int] = []  # per unit: id of enclosing block instance
    stack: list[tuple[str, int]] = []  # (tag, block_instance_id)
    next_block_id = 0
    link_depth = 0
    skip_depth = 0  # inside <script>/<style>
    pos = 0
    units_append = units.append
    bids_append = block_ids.append
    for m in _HTML_TOKEN_RE.finditer(text):
        mstart, mend = m.span()
        if mstart > pos and skip_depth == 0:
            if stack:
                tag, bid = stack[-1]
            else:
                tag, bid = "div", -1
            u = _mk_unit(text, pos, mstart, tag, link_depth > 0)
            if u is not None:
                units_append(u)
                bids_append(bid)
        c1, n1, c2, n2 = m.groups()
        name = n1 or n2
        # comment / CDATA (contents never become units) or self-closing tag
        if name is None or (text[mend - 2] == "/" and mend - mstart > 3):
            pos = mend
            continue
        name = name.lower()
        closing = (c1 or c2) == "/"
        if name in _SKIP_CONTENT_TAGS:
            skip_depth = max(0, skip_depth - 1) if closing else skip_depth + 1
        elif name == "a":
            link_depth = max(0, link_depth - 1) if closing else link_depth + 1
        elif name in _BLOCK_TAGS:
            if closing:
                for i in range(len(stack) - 1, -1, -1):
                    if stack[i][0] == name:
                        del stack[i:]
                        break
            else:
                stack.append((name, next_block_id))
                next_block_id += 1
        pos = mend
    if pos < len(text) and skip_depth == 0:
        tag = stack[-1][0] if stack else "div"
        bid = stack[-1][1] if stack else -1
        u = _mk_unit(text, pos, len(text), tag, link_depth > 0)
        if u is not None:
            units.append(u)
            block_ids.append(bid)

    # geometry pass: each unit proposes the full content span of its block
    # instance (per-pixel full-box proposal, reference DetectUtil.py:171-194)
    spans: dict[int, tuple[int, int]] = {}
    for u, bid in zip(units, block_ids):
        if bid not in spans:
            spans[bid] = (u.start, u.end)
        else:
            s, e = spans[bid]
            spans[bid] = (min(s, u.start), max(e, u.end))
    for u, bid in zip(units, block_ids):
        u.geo_start, u.geo_end = spans[bid]
    return units


def _segment_plain(text: str) -> list[Unit]:
    """Plain prose: units are non-empty lines; geometry is the enclosing
    paragraph (maximal run of non-blank lines)."""
    units: list[Unit] = []
    para: list[Unit] = []

    def flush() -> None:
        if not para:
            return
        gs = min(u.start for u in para)
        ge = max(u.end for u in para)
        for u in para:
            u.geo_start, u.geo_end = gs, ge
        units.extend(para)
        para.clear()

    pos = 0
    for line in text.split("\n"):
        a, b = pos, pos + len(line)
        pos = b + 1
        u = _mk_unit(text, a, b, "plain", False)
        if u is None:
            flush()
        else:
            para.append(u)
    flush()
    return units


def _segment_pdfish(text: str) -> list[Unit]:
    """pdfish layout payload: one unit per `L <page> <y> <x> <text>` record;
    geometry = contiguous run of records on the same page (the "box");
    (page, y, x) keys drive the decoder's reading-order sort (O3 analog)."""
    units: list[Unit] = []
    block: list[Unit] = []
    cur_page = -1

    def flush() -> None:
        if not block:
            return
        gs = min(u.start for u in block)
        ge = max(u.end for u in block)
        for u in block:
            u.geo_start, u.geo_end = gs, ge
        units.extend(block)
        block.clear()

    pos = 0
    for line in text.split("\n"):
        a = pos
        pos = a + len(line) + 1
        m = _PDF_LINE_RE.match(line)
        if m is None:
            flush()
            cur_page = -1
            continue
        page, y, x = int(m.group(1)), int(m.group(2)), int(m.group(3))
        toff = a + m.start(4)
        u = _mk_unit(text, toff, a + len(line), "pdfline", False, page, y, x)
        if u is None:
            continue
        if page != cur_page:
            flush()
            cur_page = page
        block.append(u)
    flush()
    return units


def segment(text: str, kind: str | None = None) -> list[Unit]:
    """Decompose a normalized payload into candidate units (emission order =
    document order; the order locality-aware NMS consumes, SURVEY §2.7 D1)."""
    if not text:
        return []
    if kind is None:
        kind = detect_kind(text)
    if kind == PAYLOAD_HTML:
        return _segment_html(text)
    if kind == PAYLOAD_PDFISH:
        return _segment_pdfish(text)
    return _segment_plain(text)

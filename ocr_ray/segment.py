"""Payload segmentation: raw turn payload -> dense candidate unit columns.

This is the engine analog of the reference's dense score/geometry maps
(SURVEY.md §1.2): every payload is decomposed into candidate units (text
runs / lines), held as parallel per-turn columns (:class:`Units`, one
entry per unit, no object per unit — the reference's maps are arrays, not
per-pixel objects):

- ``start``/``end`` — exact char offsets of the unit's text into the
  normalized payload (the "pixel coordinate"),
- ``geo_start``/``geo_end`` — the full span of the unit's enclosing
  content block (the per-pixel "distances to the box edges" geometry,
  reference DataPreprocess/DataGen.py:281-291),
- features for the scorer: ``tag``, ``text_density``, ``link_density``,
  ``ignore`` (ignore-tag analog of ``*``/``###`` regions, reference
  DataPreprocess/DataGen.py:80-84),
- ``page``/``y``/``x`` — pdfish reading-order keys (0 otherwise).

Three payload kinds (FIXTURES.md §1): ``plain`` prose, ``html`` boilerplate-
wrapped markup, ``pdfish`` embedded layout records. Kind detection is
deterministic from the payload itself.
"""

from __future__ import annotations

import re
import string

from .config import PAYLOAD_HTML, PAYLOAD_PDFISH, PAYLOAD_PLAIN

__all__ = ["Units", "detect_kind", "segment", "PDF_MAGIC"]

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
# of swallowing the document. Comments and CDATA match with c1/n1/c2/n2
# None; a self-closing tag (<br/>) ends in "/>". The outer group makes
# re.split return each token and its groups between the runs:
# [run, token, c1, n1, c2, n2, run, ...].
_HTML_TOKEN_RE = re.compile(
    r"(<!--.*?-->"
    r"|<!\[CDATA\[.*?\]\]>"
    r"|<(?P<c1>/?)(?P<n1>[a-zA-Z][a-zA-Z0-9]*)"
    r"(?:[\s/](?:\"[^\"]*\"|'[^']*'|[^>\"'])*)?>"
    r"|<(?P<c2>/?)(?P<n2>[a-zA-Z][a-zA-Z0-9]*)(?:[\s/][^>]*)?>)",
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

class Units:
    """A payload's units as parallel lists in document order — the order
    locality-aware NMS consumes (SURVEY §2.7 D1). Units are disjoint, so
    ``start`` and ``end`` both ascend: every bisection searches them.
    ``len()`` is the unit count. The lists are read-only by convention
    (``page``, ``y`` and ``x`` share one zero list outside pdfish)."""

    __slots__ = ("start", "end", "geo_start", "geo_end", "tag",
                 "text_density", "link_density", "ignore", "page", "y", "x")

    def __init__(self, start: list[int], end: list[int], geo_start: list[int],
                 geo_end: list[int], tag: list[str], text_density: list[float],
                 link_density: list[float], ignore: list[bool],
                 page: list[int] | None = None, y: list[int] | None = None,
                 x: list[int] | None = None) -> None:
        self.start = start
        self.end = end
        self.geo_start = geo_start
        self.geo_end = geo_end
        self.tag = tag
        self.text_density = text_density
        self.link_density = link_density
        self.ignore = ignore
        if page is None:
            page = y = x = [0] * len(start)
        self.page = page
        self.y = y
        self.x = x

    def __len__(self) -> int:
        return len(self.start)


_EMPTY = Units([], [], [], [], [], [], [], [])


def detect_kind(text: str) -> str:
    if text.startswith(PDF_MAGIC):
        return PAYLOAD_PDFISH
    if _HTML_HINT_RE.search(text):
        return PAYLOAD_HTML
    return PAYLOAD_PLAIN


# the "good" chars of the density feature, deleted by bytes.translate so
# len() counts the rest
_GOOD_BYTES = (string.ascii_letters + string.digits + " ").encode()


def _unicode_density(s: str) -> float:
    return sum(1 for c in s if c.isalnum() or c == " ") / len(s)


def _columns(starts: list[int], bodies: list[str], blocks: list[int],
             **cols) -> Units:
    """Units from each unit's start, stripped text and block instance id.

    text_density is the fraction of alphanumeric+space chars. Its ascii
    fast path (C-speed bytes.translate deleting the good set, no per-char
    Python) is exact: ascii isalnum() == [0-9a-zA-Z]; the unicode
    fall-back keeps isalnum() semantics for non-ascii runs.

    Geometry: each unit proposes the full content span of its block
    instance (per-pixel full-box proposal, reference
    DetectUtil.py:171-194). Units ascend, so a block spans its first
    unit's start to its last unit's end."""
    if not starts:
        return _EMPTY
    ends = [a + len(b) for a, b in zip(starts, bodies)]
    dens = [
        (len(b) - len(b.encode().translate(None, _GOOD_BYTES))) / len(b)
        if b.isascii() else _unicode_density(b)
        for b in bodies
    ]
    ignore = [b == _IGNORE_EXACT or b.startswith(_IGNORE_PREFIX) for b in bodies]
    first = dict(zip(reversed(blocks), reversed(starts)))
    last = dict(zip(blocks, ends))
    return Units(starts, ends, list(map(first.__getitem__, blocks)),
                 list(map(last.__getitem__, blocks)), text_density=dens,
                 ignore=ignore, **cols)


def _segment_html(text: str) -> Units:
    """Tokenize html-ish markup into text-run units with a block-tag stack.

    Analog of rasterizing the payload into the dense score/geometry grid:
    one ``re.split`` pass yields the inter-tag runs and the tags between
    them; each non-blank run outside script/style becomes one unit, and
    its geometry is the union of runs in the same enclosing block
    instance."""
    starts: list[int] = []
    bodies: list[str] = []
    states: list[tuple[str, int, float]] = []  # per unit: (tag, block, link)
    stack: list[tuple[str, int]] = []  # (tag, block instance id)
    tag, block = "div", -1
    state = (tag, block, 0.0)
    next_block = 0
    link_depth = 0
    skip_depth = 0  # inside <script>/<style>
    pos = 0
    parts = _HTML_TOKEN_RE.split(text)
    parts += (None,) * 5  # the last run gets an empty token slot
    for run, tok, c1, n1, c2, n2 in zip(*[iter(parts)] * 6):
        if run and not skip_depth:
            body = run.lstrip()
            if body:
                starts.append(pos + len(run) - len(body))
                bodies.append(body.rstrip())
                states.append(state)
        if tok is None:
            break
        pos += len(run) + len(tok)
        name = n1 or n2
        # comment / CDATA (contents never become units) or self-closing tag
        if name is None or (tok[-2] == "/" and len(tok) > 3):
            continue
        name = name.lower()
        closing = (c1 or c2) == "/"
        if name in _SKIP_CONTENT_TAGS:
            skip_depth = max(0, skip_depth - 1) if closing else skip_depth + 1
            continue
        if name == "a":
            link_depth = max(0, link_depth - 1) if closing else link_depth + 1
        elif name not in _BLOCK_TAGS:
            continue
        elif closing:
            for i in range(len(stack) - 1, -1, -1):
                if stack[i][0] == name:
                    del stack[i:]
                    tag, block = stack[-1] if stack else ("div", -1)
                    break
        else:
            tag, block = name, next_block
            stack.append((tag, block))
            next_block += 1
        state = (tag, block, 1.0 if link_depth else 0.0)
    tags = [s[0] for s in states]
    blocks = [s[1] for s in states]
    links = [s[2] for s in states]
    return _columns(starts, bodies, blocks, tag=tags, link_density=links)


def _segment_plain(text: str) -> Units:
    """Plain prose: units are non-empty lines; geometry is the enclosing
    paragraph (maximal run of non-blank lines)."""
    starts: list[int] = []
    bodies: list[str] = []
    blocks: list[int] = []
    block = 0
    pos = 0
    for line in text.split("\n"):
        body = line.lstrip()
        if body:
            starts.append(pos + len(line) - len(body))
            bodies.append(body.rstrip())
            blocks.append(block)
        else:
            block += 1  # a blank line ends the paragraph
        pos += len(line) + 1
    n = len(starts)
    return _columns(starts, bodies, blocks, tag=["plain"] * n,
                    link_density=[0.0] * n)


def _segment_pdfish(text: str) -> Units:
    """pdfish layout payload: one unit per `L <page> <y> <x> <text>` record;
    geometry = contiguous run of records on the same page (the "box");
    (page, y, x) keys drive the decoder's reading-order sort (O3 analog)."""
    starts: list[int] = []
    bodies: list[str] = []
    pages: list[int] = []
    ys: list[int] = []
    xs: list[int] = []
    blocks: list[int] = []
    block = 0
    cur_page = -1
    pos = 0
    match = _PDF_LINE_RE.match
    for line in text.split("\n"):
        a = pos
        pos = a + len(line) + 1
        m = match(line)
        if m is None:
            # a non-record line ends the box
            block += 1
            cur_page = -1
            continue
        rec = m.group(4)
        body = rec.lstrip()
        if not body:
            continue
        page = int(m.group(1))
        if page != cur_page:
            block += 1
            cur_page = page
        starts.append(a + m.start(4) + len(rec) - len(body))
        bodies.append(body.rstrip())
        pages.append(page)
        ys.append(int(m.group(2)))
        xs.append(int(m.group(3)))
        blocks.append(block)
    n = len(starts)
    return _columns(starts, bodies, blocks, tag=["pdfline"] * n,
                    link_density=[0.0] * n, page=pages, y=ys, x=xs)


def segment(text: str, kind: str | None = None) -> Units:
    """Decompose a normalized payload into candidate unit columns
    (emission order = document order; the order locality-aware NMS
    consumes, SURVEY §2.7 D1)."""
    if not text:
        return _EMPTY
    if kind is None:
        kind = detect_kind(text)
    if kind == PAYLOAD_HTML:
        return _segment_html(text)
    if kind == PAYLOAD_PDFISH:
        return _segment_pdfish(text)
    return _segment_plain(text)

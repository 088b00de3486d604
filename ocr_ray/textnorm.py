"""Text normalization + alphabet codec + CTC-style collapse.

Shared by the oracle and the Ray operators (parity contract, SURVEY.md §7.4).

- BOM / zero-width stripping replays reference DataPreprocess/DataGen.py:59-62
  verbatim (F12 in SURVEY.md §2.8).
- The silent skip of characters outside CHAR_VECTOR replays the label encoder
  (reference DataPreprocess/DataGen.py:28-45, M11).
- ``ctc_collapse`` replays greedy CTC decoding semantics — merge adjacent
  repeats, drop blanks (reference Module/RecognitionLoss.py:33-38, CTC.py:9-40,
  A5 in SURVEY.md §2.3) — at token granularity.
"""

from __future__ import annotations

import unicodedata

import re

from .config import BLANK_TOKEN, CHAR_TO_INDEX, CHAR_VECTOR

# Reference DataGen.py:59-62 strips the UTF-8 BOM and the zero-width joiner
# (it operates on raw bytes; we operate on str so the set is their decoded
# forms plus the zero-width space family commonly found in transcripts).
_STRIP_CHARS = {
    "﻿",  # BOM / zero-width no-break space
    "‍",  # zero-width joiner
    "​",  # zero-width space
    "‌",  # zero-width non-joiner
}
_STRIP_TABLE = {ord(c): None for c in _STRIP_CHARS}


def normalize_text(text: str) -> str:
    """Deterministic payload normalizer (M1/F12 analog):
    NFC unicode normalization, BOM/zero-width strip, CRLF -> LF.

    Fast paths avoid full-string copies on the (dominant) ascii /
    no-carriage-return payloads; identical output either way."""
    if not text:
        return ""
    if not text.isascii():
        # NFC is a no-op on pure ascii; zero-width chars are non-ascii
        if unicodedata.is_normalized("NFC", text):
            pass
        else:
            text = unicodedata.normalize("NFC", text)
        for c in _STRIP_CHARS:
            if c in text:
                text = text.translate(_STRIP_TABLE)
                break
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


_ALLOWED_RE = re.compile("[" + re.escape(CHAR_VECTOR) + "]*\\Z")

# per-process projection memo: corpus token vocabularies repeat heavily, so
# a dict hit replaces the regex fullmatch in the hot decode loop. Bounded:
# once full it stops inserting (never evicts — lookup stays O(1)).
_ENC_CACHE: dict[str, str] = {}
_ENC_CACHE_MAX = 1 << 16


def encode_token(token: str) -> str:
    """Project a token onto the engine alphabet: characters outside
    CHAR_VECTOR are silently skipped (reference DataGen.py:28-45 skips
    unknown chars without error; spaces are stripped at DataGen.py:30).
    A token that loses every character becomes the blank token.

    Fast path: memo hit, else a single C regex fullmatch for the (dominant)
    all-alphabet token."""
    hit = _ENC_CACHE.get(token)
    if hit is not None:
        return hit
    if _ALLOWED_RE.fullmatch(token):
        out = token if token else BLANK_TOKEN
    else:
        kept = [c for c in token if c in CHAR_TO_INDEX]
        out = "".join(kept) if kept else BLANK_TOKEN
    if len(_ENC_CACHE) < _ENC_CACHE_MAX:
        _ENC_CACHE[token] = out
    return out


def tokenize(text: str) -> list[str]:
    """Whitespace tokenization; token order is emission order for the
    CTC-style collapse (time axis analog)."""
    return text.split()


_ENTITIES = {
    "amp": "&", "lt": "<", "gt": ">",
    "quot": '"', "apos": "'", "nbsp": " ",
}
# named | decimal (&#8217;) | hex (&#x2019; / &#X2019;)
_ENTITY_RE = re.compile(
    r"&(?:(" + "|".join(_ENTITIES) + r")|#(\d{1,7})|#[xX]([0-9a-fA-F]{1,6}));"
)


def _entity_sub(m: re.Match) -> str:
    name, dec, hexa = m.groups()
    if name is not None:
        return _ENTITIES[name]
    cp = int(dec) if dec is not None else int(hexa, 16)
    # invalid code points (out of range / surrogates) stay literal — a
    # total decode never raises mid-pipeline
    if cp > 0x10FFFF or 0xD800 <= cp <= 0xDFFF:
        return m.group(0)
    return chr(cp)


def decode_entities(s: str) -> str:
    """Decode html entities during region decode (part of the parser
    stage's token normalization, A4 analog): the common named set plus
    numeric decimal/hex character references (``&#8217;`` / ``&#x2019;``),
    total over hostile input (malformed or out-of-range references pass
    through as literals). Span OFFSETS stay relative to the raw payload —
    only the decoded text changes, exactly like OCR decode output vs
    pixel coordinates."""
    if "&" not in s:
        return s
    return _ENTITY_RE.sub(_entity_sub, s)


def ctc_collapse(tokens: list[str], blanks: frozenset[str] = frozenset()) -> list[str]:
    """Greedy-CTC collapse over a token sequence: merge adjacent equal
    tokens, then drop blanks (merge_repeated=True then blank removal,
    reference Module/RecognitionLoss.py:33-38).

    ``blanks`` is the decoder's boilerplate-token set in addition to the
    empty BLANK_TOKEN; membership is checked AFTER repeat merging, matching
    CTC decode order (repeats merge first, blanks drop second): one pass
    keeps a token that differs from its predecessor in the INPUT and is no
    blank, so a blank between two equal tokens keeps both.
    """
    return [
        tok
        for prev, tok in zip([None, *tokens], tokens)
        if tok != prev and tok != BLANK_TOKEN and tok not in blanks
    ]

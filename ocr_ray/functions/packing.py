"""Sequence packing — grouping documents into training sequences of at
most ``cap`` tokens (the LLM-training batch-shaping op).

Greedy packing is inherently sequential, so the scale shape is
SHARD-LOCAL determinism: documents are partitioned into contiguous
``doc_id // shard`` ranges (embarrassingly parallel, one group per
shard), and the greedy first-fit-in-order scan runs inside each shard.
Pack assignment is a pure function of (doc_id, token counts) — stable
across reruns, partitionings, and cluster sizes. The SQL twin replays the
scan with a recursive CTE per shard.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..stages.partial_agg import contiguous_array

__all__ = ["pack_sequences", "chunk_documents", "cdc_chunks", "PACK_CAP",
           "PACK_SHARD", "CHUNK_TOKENS", "CHUNK_STRIDE", "CDC_MODULUS"]

PACK_CAP = 512    # max tokens per packed sequence
PACK_SHARD = 256  # docs per contiguous packing shard


def pack_sequences(
    docs: rd.Dataset, cap: int = PACK_CAP, shard: int = PACK_SHARD
) -> rd.Dataset:
    """Emits (doc_id, shard, pack, n_tokens): ``pack`` is the shard-local
    sequence index assigned by a greedy in-order scan — a new pack starts
    whenever adding the next document would exceed ``cap`` (documents are
    never split; an oversized document gets its own pack)."""

    def widen(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        n_tokens = np.fromiter(
            (len(x.split()) for x in t.column("text").to_pylist()),
            dtype=np.int64,
            count=t.num_rows,
        )
        return pa.Table.from_pydict(
            {"doc_id": pa.array(ids, pa.int64()),
             "shard": pa.array(ids // shard, pa.int64()),
             "n_tokens": pa.array(n_tokens, pa.int64())}
        )

    def pack_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id", kind="mergesort").reset_index(drop=True)
        n = g["n_tokens"].to_numpy()
        packs = np.empty(len(g), dtype=np.int64)
        acc = 0
        pack = -1
        for i, tok in enumerate(n):
            if pack < 0 or acc + tok > cap:
                pack += 1
                acc = int(tok)
            else:
                acc += int(tok)
            packs[i] = pack
        g["pack"] = packs
        return g[["doc_id", "shard", "pack", "n_tokens"]]

    return (
        docs.map_batches(widen, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(pack_shard, batch_format="pandas")
    )


CHUNK_TOKENS = 64  # chunk window length (tokens)
CHUNK_STRIDE = 48  # chunk start stride (CHUNK_TOKENS - overlap)


def chunk_documents(
    docs: rd.Dataset, size: int = CHUNK_TOKENS, stride: int = CHUNK_STRIDE
) -> rd.Dataset:
    """Overlapping fixed-size token chunking — the context-window shaping
    op of an LLM training pipeline. Each document explodes into windows
    starting at token 0, stride, 2*stride, ... while start < n_tokens;
    the final window may be short. Emits integer coordinates only
    (doc_id, chunk_idx, start_tok, n_tok, start_char, n_chars): training
    consumers slice the original text zero-copy by char offset instead of
    materializing duplicated chunk text through the shuffle.

    Scale shape: stateless vectorized explode (one np.repeat/arange pass
    per block over the Arrow split-list offsets — no per-row Python), no
    shuffle; output order is irrelevant downstream and every chunk row is
    a pure function of its document."""
    if size < 1 or stride < 1:
        raise ValueError(f"chunk size/stride must be >= 1, got {size}/{stride}")
    if stride > size:
        # the n_chunks closed form assumes contiguous coverage; a stride
        # beyond the window would also skip tokens outright
        raise ValueError(f"chunk stride ({stride}) must be <= size ({size})")

    def explode(t: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            [("doc_id", pa.int64()), ("chunk_idx", pa.int64()),
             ("start_tok", pa.int64()), ("n_tok", pa.int64()),
             ("start_char", pa.int64()), ("n_chars", pa.int64())]
        )
        if t.num_rows == 0:
            return out_schema.empty_table()
        text = contiguous_array(t.column("text"))
        toks = pc.split_pattern(text, " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        # per-token flat char lengths + per-row list offsets (zero-copy)
        flat_len = pc.utf8_length(toks.values).to_numpy(zero_copy_only=False).astype(np.int64)
        offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        row_start = offs[:-1]
        # char start of each token within its row: global cumsum rebased
        g = np.concatenate([[0], np.cumsum(flat_len + 1)[:-1]])
        n_list = offs[1:] - offs[:-1]  # split length (1 for empty text)
        dl = np.where(
            pc.equal(text, "").to_numpy(zero_copy_only=False), 0, n_list
        )
        # a trailing window fully contained in the previous one adds no
        # new tokens (start > dl - size + stride) — stop before it: the
        # last kept start is ceil(max(dl-size,0)/stride)*stride
        n_chunks = np.where(
            dl > 0,
            (np.maximum(dl - size, 0) + stride - 1) // stride + 1,
            0,
        )
        row_idx = np.repeat(np.arange(t.num_rows, dtype=np.int64), n_chunks)
        base = np.repeat(np.concatenate([[0], np.cumsum(n_chunks)[:-1]]), n_chunks)
        chunk_idx = np.arange(int(n_chunks.sum()), dtype=np.int64) - base
        start_tok = chunk_idx * stride
        n_tok = np.minimum(size, dl[row_idx] - start_tok)
        f = row_start[row_idx]
        start_char = g[f + start_tok] - g[f]
        last = f + start_tok + n_tok - 1
        n_chars = (g[last] + flat_len[last]) - g[f] - start_char
        return pa.Table.from_pydict(
            {"doc_id": t.column("doc_id").to_numpy(zero_copy_only=False)[row_idx],
             "chunk_idx": chunk_idx, "start_tok": start_tok, "n_tok": n_tok,
             "start_char": start_char, "n_chars": n_chars},
            schema=out_schema,
        )

    return docs.map_batches(explode, batch_format="pyarrow")


# --- content-defined chunking ----------------------------------------------

CDC_MODULUS = 16  # expected chunk length in tokens (geometric)


def cdc_chunks(docs: rd.Dataset, modulus: int = CDC_MODULUS) -> rd.Dataset:
    """Content-defined chunking at token granularity (the
    dedup-friendly alternative to fixed-stride `chunk_documents`, per
    LBFS/rsync-style CDC): a chunk BOUNDARY falls after any token whose
    md5-le64 61-bit hash is 0 mod ``modulus``, so an edit moves at most
    the two chunks it touches — every other chunk's (content, boundary)
    pair is unchanged, which is the whole point for chunk-level dedup.
    Emits (doc_id, chunk_idx 1-based, start_tok, end_tok 1-based
    inclusive, n_tokens) — ALL integers, an exact oracle.

    Scale shape: map-only. One vectorized tokenize + flatten per block,
    per-token boundary bits, segment ids via cumsum, and one
    np.unique/reduceat sweep per block — no shuffle, no driver state;
    the token hash is the same md5-le64 the oracle replays
    (`hash_token`), computed once per distinct token of the block."""
    from .textstats import hash_token

    out_schema = pa.schema([
        ("doc_id", pa.int64()), ("chunk_idx", pa.int64()),
        ("start_tok", pa.int64()), ("end_tok", pa.int64()),
        ("n_tokens", pa.int64()),
    ])

    def explode(t: pa.Table) -> pa.Table:
        from ..stages.partial_agg import split_ws

        if t.num_rows == 0:
            return out_schema.empty_table()
        text = pc.fill_null(contiguous_array(t.column("text")), "")
        toks = split_ws(pc.utf8_lower(text))
        flat = contiguous_array(pc.list_flatten(toks))
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        did_all = np.repeat(
            t.column("doc_id").to_numpy(zero_copy_only=False),
            lens.astype(np.int64),
        )
        keep = pc.not_equal(flat, "")
        did = did_all[keep.to_numpy(zero_copy_only=False)]
        if did.size == 0:
            return out_schema.empty_table()
        # per-doc 1-based token ordinals
        new_doc = np.r_[True, did[1:] != did[:-1]]
        first = np.flatnonzero(new_doc)
        ord_ = np.arange(did.size, dtype=np.int64) - np.repeat(
            first, np.diff(np.append(first, did.size))) + 1
        # boundary AFTER token i iff hash % modulus == 0; a new chunk
        # starts at doc start or right after a boundary. Each distinct
        # token is hashed once (md5 is a Python call per token): Arrow's
        # hash-based dictionary encoding, hashes taken back by its codes.
        words = flat.filter(keep).dictionary_encode()
        vocab = words.dictionary.to_numpy(zero_copy_only=False)
        h = np.fromiter(
            (hash_token(w) for w in vocab), dtype=np.int64, count=vocab.size
        )[words.indices.to_numpy(zero_copy_only=False)]
        bnd = (h % modulus) == 0
        new_chunk = new_doc | np.r_[False, bnd[:-1]]
        starts = np.flatnonzero(new_chunk)
        seg_doc = did[starts]
        # chunk_idx: 1-based per doc
        new_doc_seg = np.r_[True, seg_doc[1:] != seg_doc[:-1]]
        first_seg = np.flatnonzero(new_doc_seg)
        chunk_idx = np.arange(starts.size, dtype=np.int64) - np.repeat(
            first_seg, np.diff(np.append(first_seg, starts.size))) + 1
        counts = np.diff(np.append(starts, did.size))
        return pa.Table.from_pydict(
            {"doc_id": seg_doc.astype(np.int64),
             "chunk_idx": chunk_idx,
             "start_tok": ord_[starts],
             "end_tok": ord_[starts] + counts - 1,
             "n_tokens": counts.astype(np.int64)},
            schema=out_schema,
        )

    return docs.map_batches(explode, batch_format="pyarrow")

"""Distributed BPE merge learning over the ``documents`` table — the
tokenizer-training stage of an LLM-data pipeline (Sennrich et al. 2016
subword units), expressed Ray-Data-first.

The trainer operates on the DISTINCT-WORD table weighted by corpus
frequency (the classic vocabulary-level formulation: a word's pair
counts are computed once and weighted by its occurrence count, so the
iterative passes touch |vocab| rows, not |corpus| tokens). Each round:

  1. adjacent-symbol pair counts — per-batch Counter weighted by word
     freq (map-side combiner), then one hash-bucketed grouped sum over
     the pair key;
  2. distributed argmax — per-block top-1 after excluding
     already-chosen pairs (the exclusion set is tiny and rides the
     closure), then a bounded driver pick over n_blocks candidate rows
     with the tie-break on the CONCATENATED "left right" string
     (symbols never contain spaces, and this is exactly the SQL twin's
     ORDER BY n DESC, pair);
  3. merge application — one left-to-right non-overlapping
     delimiter-replace pass over each word's space-joined symbol
     string: ``(' '+syms+' ').replace(f' {l} {r} ', f' {l}{r} ')``.
     Python str.replace and DuckDB replace() share this algorithm
     byte-for-byte (find next occurrence, resume AFTER the
     replacement), so the oracle replays it exactly.

MERGE-APPLICATION SEMANTICS NOTE: the single replace pass differs from
textbook BPE inside consecutive repeats of the merged pair ("a b a b"
merges only the first occurrence, because the shared middle delimiter
is consumed), so a chosen pair may survive into later rounds; the
argmax therefore EXCLUDES previously-chosen pairs, keeping the merge
list duplicate-free. Both sides (engine and SQL) implement the same
definition, making the operator exactly replayable — the textbook
greedy rescan is not expressible as a bounded SQL unroll.

Scale shape: the word table stays a Dataset throughout (one grouped
count builds it; each round is one map pass + one bucketed grouped sum
over pair keys); the driver holds only n_blocks top-1 candidates per
round and the K-row merge list. K rounds = K small shuffles — the
distinct-pair key space shrinks every round.
"""

from __future__ import annotations

import collections

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.partial_agg import contiguous_array, local_table, split_ws

__all__ = ["bpe_merges", "bpe_merges_from_words", "bpe_encode_stats"]


def _word_counts(docs):
    """Distinct lowercased whitespace words with corpus occurrence
    counts — the weighted vocabulary the trainer iterates on."""
    from ..stages.partial_agg import grouped_agg

    def toks_of(t: pa.Table) -> pa.Table:
        text = pc.fill_null(contiguous_array(t.column("text")), "")
        flat = contiguous_array(pc.list_flatten(
            split_ws(pc.utf8_lower(text))
        ))
        nonempty = flat.filter(pc.not_equal(flat, ""))
        return pa.table({"tok": nonempty})

    return grouped_agg(
        docs.map_batches(toks_of, batch_format="pyarrow"),
        ["tok"], count_alias="freq",
    )


def _pair_counts_table(t: pa.Table, exclude) -> "collections.Counter":
    """Weighted adjacent-pair counts of one (syms, freq) table — the
    shared kernel of the distributed combiner and the local path."""
    c: collections.Counter = collections.Counter()
    freqs = t.column("freq").to_pylist()
    for syms, f in zip(t.column("syms").to_pylist(), freqs):
        parts = syms.split(" ")
        for a, b in zip(parts, parts[1:]):
            p = a + " " + b
            if p not in exclude:
                c[p] += f
    return c


def _apply_merge_table(t: pa.Table, l: str, r: str) -> pa.Table:
    """One left-to-right non-overlapping replace pass (see module
    docstring) over a (syms, freq) table — shared by both paths."""
    syms = t.column("syms")
    padded = pc.binary_join_element_wise(
        pa.scalar(""), syms, pa.scalar(""), " "
    )
    merged = pc.replace_substring(
        padded, pattern=f" {l} {r} ", replacement=f" {l}{r} "
    )
    return pa.table(
        {"syms": pc.utf8_trim_whitespace(merged), "freq": t.column("freq")}
    )


def _train_local(tbl: pa.Table, k: int):
    """Driver-local k rounds over one table (below-gate path)."""
    chosen: list[tuple[str, int]] = []
    for _ in range(k):
        cnt = _pair_counts_table(tbl, frozenset(p for p, _ in chosen))
        if not cnt:
            break
        pair = min(cnt, key=lambda p: (-cnt[p], p))
        chosen.append((pair, int(cnt[pair])))
        l, r = pair.split(" ")
        tbl = _apply_merge_table(tbl, l, r)
    return chosen, tbl


def bpe_merges(docs, k: int = 6) -> pd.DataFrame:
    """Learn the first ``k`` BPE merges over the corpus. Returns a
    DataFrame (rank 1..k, left, right, n) where n is the weighted pair
    count at selection time; fewer than k rows when the pair space is
    exhausted. Fully deterministic; exact SQL twin in
    ``__ray_entry__._bpe_sql`` (same weights, same tie-break, same
    replace-pass application)."""
    return bpe_merges_from_words(_word_counts(docs), k)


def bpe_merges_from_words(word_counts, k: int = 6) -> pd.DataFrame:
    """The trainer proper, over a prebuilt (tok, freq) Dataset — the
    entry point when the weighted vocabulary already exists (or is
    synthesized, as in the scale demo)."""
    chosen, _ = _train(word_counts, k)
    return pd.DataFrame(
        {"rank": pd.Series(np.arange(1, len(chosen) + 1), dtype="int64"),
         "left": [p.split(" ")[0] for p, _ in chosen],
         "right": [p.split(" ")[1] for p, _ in chosen],
         "n": pd.Series([n for _, n in chosen], dtype="int64")}
    )


def _train(word_counts, k: int):
    """Run the k training rounds; returns (chosen merge list, final
    segmented word Dataset (syms, freq)). The final table is the
    trained tokenizer's segmentation of every vocabulary word —
    ``bpe_encode_stats`` joins it back onto the corpus."""

    def to_syms(t: pa.Table) -> pa.Table:
        toks = t.column("tok").to_pylist()
        return pa.table(
            {"syms": pa.array([" ".join(w) for w in toks], pa.string()),
             "freq": t.column("freq").cast(pa.int64())}
        )

    words = (
        word_counts
        .map_batches(to_syms, batch_format="pyarrow")
        .materialize()
    )

    # below-gate driver-local fast path (the graph_triangles lesson: k
    # rounds x 2 dataset executions on a tiny vocabulary is pure fixed
    # overhead). Runs the IDENTICAL batch kernels on one local table —
    # same pair counter, same tie-break, same replace pass — so results
    # are bit-equal to the distributed plan by construction.
    full = local_table(words, "bpe", pa.schema(
        [("syms", pa.string()), ("freq", pa.int64())]))
    if full is not None:
        chosen, tbl = _train_local(full, k)
        import ray.data as rd

        return chosen, rd.from_arrow(tbl)

    from ..stages.partial_agg import grouped_agg

    chosen: list[tuple[str, int]] = []
    for rank in range(1, k + 1):
        exclude = frozenset(p for p, _ in chosen)

        def pair_counts(t: pa.Table, exclude=exclude) -> pa.Table:
            c = _pair_counts_table(t, exclude)
            return pa.table(
                {"pair": pa.array(list(c.keys()), pa.string()),
                 "n": pa.array(list(c.values()), pa.int64())}
            )

        def block_top1(t: pa.Table) -> pa.Table:
            return t.sort_by([("n", "descending"), ("pair", "ascending")]
                             ).slice(0, 1).select(["pair", "n"])

        cand = (
            grouped_agg(
                words.map_batches(pair_counts, batch_format="pyarrow"),
                ["pair"], ["n"], count_alias=None,
            )
            .map_batches(block_top1, batch_format="pyarrow")
            .to_pandas()
        )
        if not len(cand):
            break
        cand = cand.sort_values(
            ["n", "pair"], ascending=[False, True], kind="mergesort"
        )
        pair, n = str(cand.iloc[0]["pair"]), int(cand.iloc[0]["n"])
        chosen.append((pair, n))
        left, right = pair.split(" ")

        def apply_merge(t: pa.Table, l=left, r=right) -> pa.Table:
            return _apply_merge_table(t, l, r)

        words = words.map_batches(
            apply_merge, batch_format="pyarrow"
        ).materialize()

    return chosen, words


def bpe_encode_stats(docs, k: int = 6):
    """Apply the learned tokenizer back to the corpus: per-doc word and
    subword counts under the first ``k`` BPE merges — the
    sequence-length accounting step of tokenizer training (how much
    does the vocab compress the corpus?). Returns a Dataset of
    (doc_id, n_words, n_subwords); docs with no tokens emit no row
    (matching the SQL twin's inner join + GROUP BY).

    Scale shape: the segmented word table comes straight out of the
    trainer (it already exists, distributed); each word's subword count
    is one vectorized count_substring; the corpus token stream joins it
    via the partitioned bucket hash join (large-large: token stream ~
    corpus) and one bucketed grouped sum folds per-doc totals. The
    original word is recovered as replace(syms, ' ', '') — symbol
    concatenation is the identity BPE preserves, so no extra column
    rides the k training passes."""
    from ..pipelines.joins import bucket_hash_join
    from ..stages.partial_agg import grouped_agg

    _, words = _train(_word_counts(docs), k)

    def seg_of(t: pa.Table) -> pa.Table:
        syms = t.column("syms")
        n_sub = pc.add(pc.count_substring(syms, " "), 1).cast(pa.int64())
        return pa.table(
            {"tok": pc.replace_substring(syms, pattern=" ", replacement=""),
             "n_sub": n_sub}
        )

    seg = words.map_batches(seg_of, batch_format="pyarrow").materialize()

    def doc_toks(t: pa.Table) -> pa.Table:
        text = pc.fill_null(contiguous_array(t.column("text")), "")
        toks = split_ws(pc.utf8_lower(text))
        flat = contiguous_array(pc.list_flatten(toks))
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        did = np.repeat(
            t.column("doc_id").to_numpy(zero_copy_only=False),
            lens.astype(np.int64),
        )
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        return pa.table(
            {"doc_id": pa.array(did[keep], pa.int64()),
             "tok": flat.filter(pa.array(keep))}
        )

    stream = docs.map_batches(doc_toks, batch_format="pyarrow")
    joined = bucket_hash_join(stream, seg, on="tok")

    per_doc = grouped_agg(
        joined.select_columns(["doc_id", "n_sub"]), ["doc_id"], ["n_sub"],
        count_alias="n_words",
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"], "n_words": t["n_words"],
                         "n_subwords": t["n_sub"]})

    return per_doc.map_batches(finish, batch_format="pyarrow")

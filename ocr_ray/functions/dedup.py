"""Deduplication operators over the ``documents`` / ``embeddings`` tables
(training-data pipeline extensions; graded alongside SURVEY.md §2).

Scale shapes (the 100 TB design, exercised at sandbox SF):

- exact:    vectorized content-hash map_batches -> groupby(hash) ->
            keep min doc_id per group. One shuffle over (hash, doc_id)
            pairs only — the payload never shuffles.
- minhash:  shingle -> 64-perm minhash -> 16x4 LSH banding, exploded to
            (band_idx, band_key, doc_id) rows -> groupby(band) -> candidate
            pairs -> exact-Jaccard verify against a broadcast shingle-set
            lookup (ray.put once; only candidate docs' shingles ship).
- simhash:  64-bit simhash -> 4x16-bit band explode -> groupby -> pairs ->
            Hamming-distance verify.
- embedding near-dup: seeded random-hyperplane LSH buckets -> in-bucket
            exact cosine verify (brute-force matmul per bucket).

Pair outputs are canonical (doc_a < doc_b) and deduplicated across buckets.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

__all__ = [
    "add_content_hash",
    "exact_dedup",
    "dup_spans",
    "dup_intervals",
    "minhash_signatures_batch",
    "minhash_pairs",
    "simhash_pairs",
    "embedding_near_dup",
    "cluster_pairs",
    "cluster_pairs_dataset",
    "dedup_drop_ids",
    "dedup_keep_list",
    "shingle_hash_rows",
    "snm_pairs",
    "decontaminate",
    "contamination_scores",
]


def _ensure_cols(cols: dict[str, str]):
    """map_batches guard between two shuffles: a sort partition with no
    rows passes through map_groups with its INPUT schema, and the next
    shuffle's block concat then dies on the schema mismatch. Normalize
    every block to exactly ``cols`` (name -> pandas dtype)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        missing = [c for c in cols if c not in df.columns]
        if missing:
            if len(df):
                # same contract as pin_schema: a NON-empty block missing
                # columns is an upstream schema bug — fail, don't drop rows
                raise ValueError(
                    f"_ensure_cols: non-empty block missing columns "
                    f"{missing}; got {list(df.columns)}"
                )
            return pd.DataFrame({c: pd.Series([], dtype=t) for c, t in cols.items()})
        # dtype-pin non-empty blocks too: empty-side pandas concat in the
        # shuffle promotes int64 -> float64 (round-3 doc_rare_terms lesson)
        return df[list(cols)].astype(cols)

    return fn


def _dataset_bloom(ds: rd.Dataset, col: str, capacity: int, fp_rate: float = 0.01):
    """Distributed Bloom build over ``ds[col]``: per-block partial bitsets
    (fixed-size blobs, deterministic layout from ``capacity``) OR-merged on
    the driver — the HLL-register merge shape, bounded regardless of key
    count. No false negatives; fp hits only cost wasted downstream work."""
    from .bloom import BloomFilter

    proto = BloomFilter(capacity, fp_rate)

    def partial(t: pa.Table) -> pa.Table:
        bf = BloomFilter(capacity, fp_rate)
        bf.add(t.column(col).to_numpy(zero_copy_only=False))
        return pa.Table.from_pydict({"bits": [bf.bits.tobytes()]})

    # small merge batches: each row is a full bitset blob (O(capacity)
    # bytes), so keep only a handful in driver memory at a time
    for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_size=8, batch_format="pyarrow"
    ):
        for blob in b.column("bits").to_pylist():
            proto.bits |= np.frombuffer(blob, dtype=np.uint64)
    return proto

_MERSENNE = (1 << 61) - 1
_N_PERM = 64
_N_BANDS = 16  # x 4 rows/band
_SHINGLE_K = 3
_SEED = 42


def _token_hashes(text: str) -> np.ndarray:
    """Stable 61-bit hashes of word 3-gram shingles (canonical lowercase):
    md5 of the joined shingle string, which the DuckDB oracle replays
    bit-for-bit (`_md5_le64_terms`)."""
    toks = text.lower().split()
    if len(toks) < _SHINGLE_K:
        toks = toks + ["\x00"] * (_SHINGLE_K - len(toks))
    n_sh = len(toks) - _SHINGLE_K + 1
    out = np.empty(n_sh, dtype=np.uint64)
    for i in range(len(out)):
        sh = " ".join(toks[i : i + _SHINGLE_K])
        out[i] = int.from_bytes(
            hashlib.md5(sh.encode("utf-8")).digest()[:8], "little"
        ) % _MERSENNE
    return np.unique(out)


_rng = np.random.RandomState(_SEED)
_PERM_A = _rng.randint(1, _MERSENNE, size=_N_PERM, dtype=np.int64).astype(np.uint64)
_PERM_B = _rng.randint(0, _MERSENNE, size=_N_PERM, dtype=np.int64).astype(np.uint64)


def _minhash(shingles: np.ndarray) -> np.ndarray:
    """64-permutation minhash signature of a shingle-hash set (vectorized:
    one (n_shingles x 64) broadcast per doc)."""
    if shingles.size == 0:
        return np.full(_N_PERM, _MERSENNE, dtype=np.uint64)
    # (a*x + b) mod p, elementwise over the outer product
    vals = (shingles[:, None] * _PERM_A[None, :] + _PERM_B[None, :]) % _MERSENNE
    return vals.min(axis=0)


# --- exact dedup -----------------------------------------------------------


def add_content_hash(batch: pa.Table) -> pa.Table:
    """Vectorized content hash column (md5 of canonical text)."""
    texts = batch.column("text").to_pylist()
    hs = [
        hashlib.md5(" ".join(t.lower().split()).encode("utf-8")).hexdigest()
        for t in texts
    ]
    return pa.Table.from_arrays(
        [batch.column("doc_id"), pa.array(hs, pa.string())],
        names=["doc_id", "content_hash"],
    )


def exact_dedup(docs: rd.Dataset) -> rd.Dataset:
    """Keep min doc_id per content hash; emits (doc_id, dup_count)."""
    from ray.data.aggregate import Count, Min

    hashed = docs.map_batches(add_content_hash, batch_format="pyarrow")
    return hashed.groupby("content_hash").aggregate(
        Min("doc_id", alias_name="doc_id"), Count(alias_name="dup_count")
    ).select_columns(["doc_id", "dup_count"])


# --- exact substring (token-window) duplicate spans -------------------------


_DUP_WINDOW = 8


def _window_rows(t: pa.Table, window: int) -> pa.Table:
    """Explode each doc into one row per length-``window`` token window:
    (doc_id, pos 1-based, wkey, n_tokens).

    Tokenization is a raw single-space split (== DuckDB
    ``string_split(text, ' ')``, empty tokens preserved). Default key:
    md5-le64 % (2^61-1) of the window SUBSTRING — sliced directly from
    the UTF-8 bytes between token offsets (0x20 never occurs inside a
    multi-byte UTF-8 sequence, so the byte slice equals the joined-token
    string), no per-window string join. The oracle replays the identical
    key (`_md5_le64_terms`), so grouping semantics are bit-equal by
    construction, collisions included."""
    ids = t.column("doc_id").to_numpy(zero_copy_only=False)
    texts = t.column("text").to_pylist()
    doc_out: list[np.ndarray] = []
    pos_out: list[np.ndarray] = []
    ntk_out: list[np.ndarray] = []
    key_out: list[int] = []
    md5 = hashlib.md5
    for d, s in zip(ids, texts):
        b = s.encode("utf-8")
        arr = np.frombuffer(b, dtype=np.uint8)
        sp = np.flatnonzero(arr == 32)
        starts = np.concatenate(([0], sp + 1))
        ends = np.concatenate((sp, [arr.size]))
        n = starts.size  # == len(s.split(' '))
        m = n - window + 1
        if m <= 0:
            continue
        for i in range(m):
            dig = md5(b[starts[i]:ends[i + window - 1]]).digest()
            key_out.append(int.from_bytes(dig[:8], "little") % _MERSENNE)
        doc_out.append(np.full(m, d, dtype=np.int64))
        pos_out.append(np.arange(1, m + 1, dtype=np.int64))
        ntk_out.append(np.full(m, n, dtype=np.int64))
    if not doc_out:
        return pa.table({
            "doc_id": pa.array([], pa.int64()),
            "pos": pa.array([], pa.int64()),
            "wkey": pa.array([], pa.int64()),
            "n_tokens": pa.array([], pa.int64()),
        })
    return pa.table({
        "doc_id": np.concatenate(doc_out),
        "pos": np.concatenate(pos_out),
        "wkey": np.asarray(key_out, dtype=np.int64),
        "n_tokens": np.concatenate(ntk_out),
    })


def _dup_hits(docs: rd.Dataset, window: int) -> rd.Dataset:
    """Shared phase of the substring-dedup family: window explode
    (materialized once), per-block partial counts -> one hash-bucket
    grouped sum -> dup-key set (count >= 2) -> adaptive semi-join back
    to the window rows. Returns the HIT rows (doc_id, pos, wkey,
    n_tokens) — the duplicated fraction only."""
    from ..pipelines.joins import semi_anti_join
    from ..stages.partial_agg import compact_nonempty, grouped_agg

    wins = compact_nonempty(
        docs.map_batches(
            lambda t: _window_rows(t, window), batch_format="pyarrow"
        ).materialize()
    )

    def partial_counts(t: pa.Table) -> pa.Table:
        k, c = np.unique(t.column("wkey").to_numpy(), return_counts=True)
        return pa.table({"wkey": k, "cnt": c.astype(np.int64)})

    counts = grouped_agg(
        wins.map_batches(partial_counts, batch_format="pyarrow"),
        keys=["wkey"], sum_cols=["cnt"],
    )
    dup_keys = compact_nonempty(
        counts.map_batches(
            lambda t: t.filter(pa.compute.greater_equal(t.column("cnt"), 2))
            .select(["wkey"]),
            batch_format="pyarrow",
        ).materialize()
    )
    return semi_anti_join(wins, dup_keys, on="wkey", assume_distinct=True)


def dup_spans(docs: rd.Dataset, window: int = _DUP_WINDOW) -> rd.Dataset:
    """Exact substring-level duplicate detection (Lee et al. 2022,
    "Deduplicating Training Data Makes Language Models Better") at
    token-window granularity: a length-``window`` token run is DUPLICATED
    if the identical window occurs at >= 2 (doc, pos) locations anywhere
    in the corpus. Emits, per doc that contains at least one duplicated
    window: (doc_id, n_tokens, dup_windows, dup_tokens) where dup_tokens
    is the UNION length of the duplicated [pos, pos+window) intervals —
    the token count a substring-dedup pass would cut.

    Scale shape (the whole point of this op at 100 TB):
    - window explode is map-only; the working set is one 32-byte row per
      token, held in the object store (spillable), materialized ONCE and
      reused by both phases.
    - duplicate keys come from per-block np.unique partial counts (dup-
      heavy blocks shrink, unique-heavy never grow) folded by ONE
      hash-bucket grouped sum over (wkey) — never a sort of raw windows.
    - membership of window rows in the dup-key set goes through the
      adaptive `semi_anti_join` (broadcast below the key gate, marker
      cogroup join above) — no driver structure proportional to corpus
      size on either path.
    - per-doc interval-union coverage is ONE doc-hash bucket shuffle of
      the HIT rows only (the duplicated fraction), with a vectorized
      running-max sweep per bucket.
    A suffix-array formulation would find variable-length duplicates;
    the fixed-window formulation is the standard distributed relaxation
    (any duplicated run >= window long is fully covered by duplicated
    windows, so coverage is exact for runs >= window)."""
    from ..stages.partial_agg import add_hash_bucket

    hits = _dup_hits(docs, window)

    empty = pa.table({
        "doc_id": pa.array([], pa.int64()),
        "n_tokens": pa.array([], pa.int64()),
        "dup_windows": pa.array([], pa.int64()),
        "dup_tokens": pa.array([], pa.int64()),
    })

    def cover(df: pd.DataFrame) -> pa.Table:
        if df.empty:
            return empty
        doc = df["doc_id"].to_numpy()
        pos = df["pos"].to_numpy()
        ntk = df["n_tokens"].to_numpy()
        order = np.lexsort((pos, doc))
        d, p, nt = doc[order], pos[order], ntk[order]
        e = p + window - 1
        new = np.r_[True, d[1:] != d[:-1]]
        seg = np.cumsum(new) - 1
        off = int(e.max()) + window  # segment-reset running max via offset
        cm = np.maximum.accumulate(e + seg * off) - seg * off
        pm = np.r_[0, cm[:-1]]  # previous running max (masked on seg starts)
        contrib = np.where(new | (pm < p), window, e - pm)
        st = np.flatnonzero(new)
        return pa.table({
            "doc_id": d[st],
            "n_tokens": nt[st],
            "dup_windows": np.diff(np.r_[st, contrib.size]).astype(np.int64),
            "dup_tokens": np.add.reduceat(contrib, st).astype(np.int64),
        })

    return (
        hits.map_batches(
            lambda t: add_hash_bucket(t, ["doc_id"], 64),
            batch_format="pyarrow",
        )
        .groupby("bucket")
        .map_groups(cover, batch_format="pandas")
    )


def dup_intervals(docs: rd.Dataset, window: int = _DUP_WINDOW) -> rd.Dataset:
    """The cut list of the substring-dedup pass: per doc, the merged
    (overlapping-or-adjacent) duplicated token ranges as
    (doc_id, span_idx 1-based, start_tok, end_tok) — 1-based inclusive
    token positions. sum(end_tok - start_tok + 1) per doc equals
    dup_spans' dup_tokens (adjacency-merging never changes coverage);
    pinned by a pytest cross-check. Same scale shape as dup_spans: the
    interval merge is one doc-hash shuffle of hit rows with a vectorized
    break/cumsum sweep per bucket."""
    from ..stages.partial_agg import add_hash_bucket

    hits = _dup_hits(docs, window)

    empty = pa.table({
        "doc_id": pa.array([], pa.int64()),
        "span_idx": pa.array([], pa.int64()),
        "start_tok": pa.array([], pa.int64()),
        "end_tok": pa.array([], pa.int64()),
    })

    def islands(df: pd.DataFrame) -> pa.Table:
        if df.empty:
            return empty
        doc = df["doc_id"].to_numpy()
        pos = df["pos"].to_numpy()
        order = np.lexsort((pos, doc))
        d, p = doc[order], pos[order]
        e = p + window - 1
        new = np.r_[True, d[1:] != d[:-1]]
        seg = np.cumsum(new) - 1
        off = int(e.max()) + window
        cm = np.maximum.accumulate(e + seg * off) - seg * off
        pm = np.r_[0, cm[:-1]]
        brk = new | (p > pm + 1)  # gap: not even adjacent to the union
        st = np.flatnonzero(brk)
        # per-doc 1-based island ordinals: island index minus the index
        # of its doc's first island
        isl_doc = d[st]
        first = np.r_[True, isl_doc[1:] != isl_doc[:-1]]
        cnts = np.diff(np.r_[np.flatnonzero(first), first.size])
        base = np.repeat(np.flatnonzero(first), cnts)
        return pa.table({
            "doc_id": isl_doc,
            "span_idx": (np.arange(st.size) - base + 1).astype(np.int64),
            "start_tok": p[st],
            "end_tok": np.maximum.reduceat(e, st).astype(np.int64),
        })

    return (
        hits.map_batches(
            lambda t: add_hash_bucket(t, ["doc_id"], 64),
            batch_format="pyarrow",
        )
        .groupby("bucket")
        .map_groups(islands, batch_format="pandas")
    )


# --- minhash LSH -----------------------------------------------------------


def minhash_signatures_batch(batch: pa.Table) -> pa.Table:
    """Per-doc minhash signature -> exploded LSH band rows
    (doc_id, band_idx, band_key)."""
    texts = batch.column("text").to_pylist()
    doc_ids = batch.column("doc_id").to_pylist()
    rows_doc, rows_band, rows_key = [], [], []
    rows_per_band = _N_PERM // _N_BANDS
    for did, t in zip(doc_ids, texts):
        sig = _minhash(_token_hashes(t))
        for b in range(_N_BANDS):
            chunk = sig[b * rows_per_band : (b + 1) * rows_per_band]
            key = int.from_bytes(
                hashlib.md5(chunk.tobytes()).digest()[:8], "little"
            ) & 0x7FFFFFFFFFFFFFFF  # fit int64
            rows_doc.append(did)
            rows_band.append(b)
            rows_key.append(key)
    return pa.Table.from_arrays(
        [
            pa.array(rows_doc, pa.int64()),
            pa.array(rows_band, pa.int32()),
            pa.array(rows_key, pa.int64()),
        ],
        names=["doc_id", "band_idx", "band_key"],
    )


# pathological-bucket ceiling for candidate-pair generation. 2048, not
# 256: the simhash sf0.1 incident showed organic corpora reach ~300
# members in one LSH bucket, and a silent sub-organic cap diverges from
# the oracle's all-pairs semantics. At 2048 a full bucket still costs
# only ~2M vectorized pair rows (~32 MB transient) / a 2048x2048 cosine
# matmul (~33 MB); past it the candidate count is adversarial (a >2048-
# member 64-bit-band collision means a >2048-copy duplicate cluster,
# whose inherent O(k^2) pair OUTPUT is the real bound, not this cap) and
# drops remain deterministic (lowest doc_ids kept).
_MAX_BUCKET = 2048
_N_HASH_BUCKETS = 64  # shuffle granularity for LSH-bucket grouping
# adaptive strategy gate (the broadcast-join-threshold idiom): at or below
# this many unique candidate pairs the verify side broadcasts the (bounded)
# candidate payload table instead of running partitioned cogroup joins
_BROADCAST_PAIR_LIMIT = 10_000
# hard cap on the driver-merged Bloom bitset (~5 MB at 1% fp): past this
# many candidate ids the fp rate degrades instead of the driver growing —
# fps only cost wasted shingling, dropped by the inner verify joins
_BLOOM_CAPACITY_CAP = 1 << 22


def _lsh_candidate_pairs(df: pd.DataFrame, keys: list[str]) -> pd.DataFrame:
    """Candidate pairs from one hash bucket of LSH band rows: only keys that
    actually collide (duplicated band values) are iterated — the common
    singleton case is filtered vectorized."""
    dup_mask = df.duplicated(subset=keys, keep=False)
    sub = df[dup_mask]
    if sub.empty:
        # typed empty: unioned blocks keep one schema (no float upcast)
        return pd.DataFrame(
            {"doc_a": pd.Series([], dtype="int64"),
             "doc_b": pd.Series([], dtype="int64")}
        )
    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    for _, g in sub.groupby(keys, sort=False):
        ids = np.sort(g["doc_id"].to_numpy())
        if len(ids) > _MAX_BUCKET:
            ids = ids[:_MAX_BUCKET]
        a, b = np.triu_indices(len(ids), k=1)
        # numpy accumulation, one concat at the end — a full 2048-member
        # bucket is ~2.1M pairs and .tolist()/extend would box every int
        out_a.append(ids[a])
        out_b.append(ids[b])
    return pd.DataFrame(
        {"doc_a": np.concatenate(out_a), "doc_b": np.concatenate(out_b)}
    )


def minhash_pairs(
    docs: rd.Dataset, threshold: float = 0.5
) -> rd.Dataset:
    """Near-duplicate pairs by MinHash-LSH with exact-Jaccard verification.

    Emits (doc_a, doc_b, jaccard) for verified pairs with jaccard >= threshold.

    Fully distributed tail: candidate pairs STAY a Dataset (cross-band
    dedup is a groupby, not a driver drop_duplicates); the verify side
    semi-filters the corpus through a bounded Bloom of candidate ids,
    shingles only the survivors, and ships each shingle set to its pairs
    via partitioned cogroup joins — the driver never materializes pairs,
    ids, or shingles.
    """
    from ..pipelines.joins import bucket_hash_join
    from ..stages.partial_agg import add_hash_bucket

    bands = docs.map_batches(minhash_signatures_batch, batch_format="pyarrow")
    # group by a coarse hash bucket (64 groups), not by raw (band, key) —
    # map_groups over one-group-per-band-value would pay per-group pandas
    # overhead on mostly-singleton buckets
    bucketed = bands.map_batches(
        lambda t: add_hash_bucket(t, ["band_idx", "band_key"], _N_HASH_BUCKETS),
        batch_format="pyarrow",
    )
    cand_rows = bucketed.groupby("bucket").map_groups(
        lambda df: _lsh_candidate_pairs(df, ["band_idx", "band_key"]),
        batch_format="pandas",
    ).map_batches(
        _ensure_cols({"doc_a": "int64", "doc_b": "int64"}), batch_format="pandas"
    ).materialize()
    n_rows = cand_rows.count()
    if n_rows == 0:
        return rd.from_pandas(pd.DataFrame({"doc_a": [], "doc_b": [], "jaccard": []}))

    # Adaptive verify strategy (the broadcast-join-threshold idiom), gated
    # on RAW candidate rows (band-duplicated, so the true pair count is <=
    # the gate too). Below the gate the whole candidate set is bounded:
    # ONE driver pull replaces the cross-band pair-dedup shuffle, the
    # Bloom build pass, and the broadcast-table gather of the wide path —
    # those three fixed barriers dominated small-corpus wall time (r2
    # bench: 3.4 s vs 2.8 s at sf0.1). Beyond the gate everything stays a
    # Dataset — driver memory is capped either way.
    if n_rows <= _BROADCAST_PAIR_LIMIT:
        pairs_pd = (
            cand_rows.to_pandas()  # bounded by the gate
            .drop_duplicates()
            .sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True)
        )
        ids = np.unique(
            np.concatenate(
                [pairs_pd["doc_a"].to_numpy(np.int64),
                 pairs_pd["doc_b"].to_numpy(np.int64)]
            )
        )
        idref = ray.put(ids)

        def shingle_exact(t: pa.Table) -> pa.Table:
            col = t.column("doc_id").to_numpy(zero_copy_only=False)
            member = np.isin(col, ray.get(idref))
            sub = t.filter(pa.array(member))
            out_id, out_sh = [], []
            for did, txt in zip(sub.column("doc_id").to_pylist(),
                                sub.column("text").to_pylist()):
                out_id.append(did)
                out_sh.append(_token_hashes(txt).tobytes())
            return pa.Table.from_pydict(
                {"doc_id": pa.array(out_id, pa.int64()),
                 "shingles": pa.array(out_sh, pa.binary())}
            )

        shingles: dict[int, bytes] = {}
        for b in docs.map_batches(
            shingle_exact, batch_format="pyarrow"
        ).iter_batches(batch_size=4096, batch_format="pyarrow"):
            for did, sh in zip(b.column("doc_id").to_pylist(),
                               b.column("shingles").to_pylist()):
                shingles[did] = sh
        ref = ray.put(shingles)

        def verify_bcast(df: pd.DataFrame) -> pd.DataFrame:
            table = ray.get(ref)
            jac = np.zeros(len(df), dtype=np.float64)
            for i, (a, b_) in enumerate(zip(df["doc_a"], df["doc_b"])):
                sa = np.frombuffer(table[a], dtype=np.uint64)
                sb = np.frombuffer(table[b_], dtype=np.uint64)
                inter = np.intersect1d(sa, sb, assume_unique=True).size
                union = sa.size + sb.size - inter
                jac[i] = inter / union if union else 0.0
            out = df[["doc_a", "doc_b"]].copy()
            out["jaccard"] = np.round(jac, 6)
            return out[out["jaccard"] >= threshold]

        return rd.from_pandas(pairs_pd).map_batches(
            verify_bcast, batch_format="pandas"
        )

    # ---- wide path: everything stays a Dataset ----
    # distributed cross-band pair dedup BEFORE the verify joins: band-copies
    # of a hot pair would otherwise multiply join rows and widen the
    # adaptive bucket count (measured slower than paying this shuffle)
    cand = (
        cand_rows.groupby(["doc_a", "doc_b"])
        .count()
        .select_columns(["doc_a", "doc_b"])
        .materialize()
    )
    n_cand = cand.count()

    # bounded Bloom semi-filter of the corpus down to candidate docs; the
    # driver-merged bitset is CAPPED — past the cap the fp rate degrades
    # gracefully, and a false positive only means one non-candidate doc is
    # shingled and then dropped by the inner verify joins
    def pair_ids(t: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {"doc_id": pa.concat_arrays(
                [t["doc_a"].combine_chunks(), t["doc_b"].combine_chunks()]
            )}
        )

    bloom = _dataset_bloom(
        cand.map_batches(pair_ids, batch_format="pyarrow"),
        "doc_id",
        capacity=min(max(64, 2 * n_cand), _BLOOM_CAPACITY_CAP),
    )
    bref = ray.put(bloom)

    def shingle_cand(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        member = ray.get(bref).contains(ids)
        sub = t.filter(pa.array(member))
        out_id, out_sh = [], []
        for did, txt in zip(sub.column("doc_id").to_pylist(),
                            sub.column("text").to_pylist()):
            out_id.append(did)
            # binary blob, not list<int64>: bytes survive the pandas
            # merge + block re-conversion without tensor-extension types
            out_sh.append(_token_hashes(txt).tobytes())
        return pa.Table.from_pydict(
            {"doc_id": pa.array(out_id, pa.int64()),
             "shingles": pa.array(out_sh, pa.binary())}
        )

    sh_ds = docs.map_batches(shingle_cand, batch_format="pyarrow").materialize()

    def rename_arrow(cols: list[str]):
        def fn(t: pa.Table) -> pa.Table:
            return t.rename_columns(cols)

        return fn

    sh_a = sh_ds.map_batches(rename_arrow(["doc_a", "sh_a"]), batch_format="pyarrow")
    sh_b = sh_ds.map_batches(rename_arrow(["doc_b", "sh_b"]), batch_format="pyarrow")
    # join parallelism sized to candidate volume (>= ~20k pairs per bucket
    # before widening): per-bucket task overhead dominates tiny verifies;
    # 100 TB candidate sets still clamp to 256-wide joins
    nb = min(256, max(8, n_cand // 20_000))
    # materialize between the chained cogroups: the second join's schema
    # probe would otherwise re-execute the first join's whole shuffle
    # (see bucket_hash_join's CALLER NOTE in pipelines/joins.py)
    with_a = bucket_hash_join(cand, sh_a, on="doc_a", n_buckets=nb).materialize()
    with_ab = bucket_hash_join(with_a, sh_b, on="doc_b", n_buckets=nb)

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        jac = np.zeros(len(df), dtype=np.float64)
        for i, (sa_, sb_) in enumerate(zip(df["sh_a"], df["sh_b"])):
            sa = np.frombuffer(sa_, dtype=np.uint64)
            sb = np.frombuffer(sb_, dtype=np.uint64)
            inter = np.intersect1d(sa, sb, assume_unique=True).size
            union = sa.size + sb.size - inter
            jac[i] = inter / union if union else 0.0
        out = pd.DataFrame(
            {"doc_a": df["doc_a"].to_numpy(dtype=np.int64),
             "doc_b": df["doc_b"].to_numpy(dtype=np.int64),
             "jaccard": np.round(jac, 6)}
        )
        return out[out["jaccard"] >= threshold]

    return with_ab.map_batches(verify, batch_format="pandas")


def ngram_jaccard_pairs(
    docs: rd.Dataset,
    threshold: float = 0.2,
    max_docs: int = 500,
    shingle_k: int = 3,
) -> rd.Dataset:
    """EXACT all-pairs word-n-gram Jaccard over a bounded doc set
    (doc_id < max_docs): the quadratic verify kernel, run exhaustively.

    Scale shape: exhaustive pairwise is only for bounded sets (here: the
    SQL-verifiable exact twin); at corpus scale this kernel runs on
    LSH candidate pairs instead (minhash_pairs). The shingle dictionary
    for the bounded set is broadcast once; the O(n^2/2) pair list is
    distributed over pair-index ranges.
    """

    def shingles_of(t: pa.Table) -> pa.Table:
        sub = t.filter(pa.compute.less(t["doc_id"], max_docs))
        ids, sets_ = [], []
        for did, txt in zip(sub.column("doc_id").to_pylist(),
                            sub.column("text").to_pylist()):
            toks = txt.lower().split()
            if len(toks) < shingle_k:
                continue
            ids.append(did)
            sets_.append(
                list({
                    " ".join(toks[i : i + shingle_k])
                    for i in range(len(toks) - shingle_k + 1)
                })
            )
        return pa.Table.from_pydict(
            {"doc_id": pa.array(ids, pa.int64()),
             "shingles": pa.array(sets_, pa.list_(pa.string()))}
        )

    sh_tbl = pa.concat_tables(
        list(
            docs.map_batches(shingles_of, batch_format="pyarrow").iter_batches(
                batch_size=4096, batch_format="pyarrow"
            )
        )
    )
    ids = sh_tbl.column("doc_id").to_pylist()
    sets_ = [frozenset(s) for s in sh_tbl.column("shingles").to_pylist()]
    order = np.argsort(ids)
    ids = [ids[i] for i in order]
    sets_ = [sets_[i] for i in order]
    ref = ray.put((ids, sets_))
    n = len(ids)
    n_pairs = n * (n - 1) // 2

    def pair_chunk(batch: pa.Table) -> pa.Table:
        ids_, sets2 = ray.get(ref)
        out_a, out_b, out_j = [], [], []
        for p in batch.column("id").to_pylist():
            # map linear pair index -> (i, j), i < j
            i = int((2 * n - 1 - np.sqrt((2 * n - 1) ** 2 - 8 * p)) // 2)
            j = int(p - i * (2 * n - i - 1) // 2 + i + 1)
            sa, sb = sets2[i], sets2[j]
            inter = len(sa & sb)
            if inter == 0:
                continue
            jac = inter / (len(sa) + len(sb) - inter)
            if jac >= threshold:
                out_a.append(ids_[i])
                out_b.append(ids_[j])
                out_j.append(round(jac, 6))
        return pa.Table.from_pydict(
            {"doc_a": pa.array(out_a, pa.int64()),
             "doc_b": pa.array(out_b, pa.int64()),
             "jaccard": pa.array(out_j, pa.float64())}
        )

    return rd.range(n_pairs).map_batches(pair_chunk, batch_format="pyarrow",
                                         batch_size=16384)


def shingle_hash_rows(t: pa.Table, shingle_k: int = _SHINGLE_K) -> pa.Table:
    """(doc_id, sh) rows: the DISTINCT md5-le64 mod 2^61-1 hashes of the
    lowercase word-``shingle_k``-grams of each doc. Docs with fewer than
    ``shingle_k`` tokens emit nothing. Shared by decontaminate /
    contamination_scores and replayed bit-exactly by their SQL twins."""
    out_id: list[int] = []
    out_sh: list[int] = []
    for did, txt in zip(t.column("doc_id").to_pylist(),
                        t.column("text").to_pylist()):
        toks = txt.lower().split()
        if len(toks) < shingle_k:
            continue
        seen = set()
        for i in range(len(toks) - shingle_k + 1):
            s = " ".join(toks[i : i + shingle_k])
            h = int.from_bytes(
                hashlib.md5(s.encode("utf-8")).digest()[:8], "little"
            ) % _MERSENNE
            seen.add(h)
        out_id.extend([did] * len(seen))
        out_sh.extend(sorted(seen))
    return pa.Table.from_pydict(
        {"doc_id": pa.array(out_id, pa.int64()),
         "sh": pa.array(out_sh, pa.int64())}
    )


def decontaminate(
    docs: rd.Dataset, bench: rd.Dataset, shingle_k: int = _SHINGLE_K
) -> rd.Dataset:
    """Benchmark decontamination: drop every candidate document sharing at
    least one word-``shingle_k``-gram with the benchmark set (the
    eval-leakage guard a training-data pipeline runs before packing).

    Composition of existing adaptive ops — shingle both sides to
    (doc_id, sh-hash) rows, semi-join candidate shingles against the
    benchmark shingle set, anti-join the contaminated doc ids back out.
    Both joins pick broadcast vs partitioned cogroup by build-side volume
    (ocr_ray.pipelines.joins.semi_anti_join), so no driver structure
    scales with corpus size.

    Documents with fewer than ``shingle_k`` tokens carry no shingles and
    are always clean (no padding — keeps the SQL twin exact)."""
    from ..pipelines.joins import semi_anti_join

    def shingle_rows(t: pa.Table) -> pa.Table:
        return shingle_hash_rows(t, shingle_k)

    doc_sh = docs.map_batches(shingle_rows, batch_format="pyarrow")
    bench_sh = bench.map_batches(shingle_rows, batch_format="pyarrow").select_columns(
        ["sh"]
    )
    contaminated = (
        semi_anti_join(doc_sh, bench_sh, on="sh")
        .groupby("doc_id")
        .count()
        .select_columns(["doc_id"])
    )
    return semi_anti_join(docs, contaminated, on="doc_id", anti=True)


def contamination_scores(
    docs: rd.Dataset, bench: rd.Dataset, shingle_k: int = _SHINGLE_K
) -> rd.Dataset:
    """Per-document contamination measurement: for every candidate doc,
    how many of its DISTINCT word-``shingle_k``-gram hashes also occur in
    the benchmark set (``matched``) out of how many it has (``total``) —
    the graded variant of :func:`decontaminate` (which drops on >=1 hit),
    used to rank docs by eval-overlap severity instead of hard-dropping.

    Scale shape: only (doc_id, sh-hash) rows ride the joins (the adaptive
    semi join picks broadcast vs cogroup by benchmark volume); the two
    counts are folded WITHOUT a second join — total rows tagged 0 and
    matched rows tagged 1 ride ONE union into a hash-bucketed grouped
    sum, so per doc: matched = sum(tag), total = n - matched. No driver
    structure proportional to docs or shingles.

    Docs with fewer than ``shingle_k`` tokens carry no shingles and are
    absent from the output (they cannot be contaminated)."""
    from ..pipelines.joins import semi_anti_join
    from ..stages.partial_agg import grouped_agg

    def shingle_rows(t: pa.Table) -> pa.Table:
        return shingle_hash_rows(t, shingle_k)

    # materialized: both the semi-join probe and the tagged union read
    # doc_sh, and the per-shingle hashing pass is the dominant cost —
    # without this, lineage re-execution runs it twice
    doc_sh = docs.map_batches(shingle_rows, batch_format="pyarrow").materialize()
    bench_sh = bench.map_batches(shingle_rows, batch_format="pyarrow").select_columns(
        ["sh"]
    )
    matched = semi_anti_join(doc_sh, bench_sh, on="sh")

    def tag(flag: int):
        def fn(t: pa.Table) -> pa.Table:
            return pa.Table.from_arrays(
                [t.column("doc_id").combine_chunks(),
                 pa.array(np.full(t.num_rows, flag, dtype=np.int64))],
                names=["doc_id", "is_match"],
            )
        return fn

    tagged = doc_sh.map_batches(tag(0), batch_format="pyarrow").union(
        matched.map_batches(tag(1), batch_format="pyarrow")
    )
    agg = grouped_agg(tagged, ["doc_id"], ["is_match"])

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"], "matched": t["is_match"],
                         "total": t["n"].to_numpy() - t["is_match"].to_numpy()})

    return agg.map_batches(finish, batch_format="pyarrow")


def cluster_pairs(pairs: pd.DataFrame) -> pd.DataFrame:
    """Connected components over near-dup pairs -> (doc_id, cluster_id)
    with cluster_id = min doc_id of the component.

    Driver-side union-find KERNEL for small in-memory pair frames (unit
    tests, notebook use). The scale path is
    :func:`cluster_pairs_dataset` — iterated min-label propagation over a
    pairs Dataset, identical output, no driver materialization."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        r = x
        while parent.setdefault(r, r) != r:
            r = parent[r]
        while parent[x] != r:
            parent[x], x = r, parent[x]
        return r

    for a, b in zip(pairs["doc_a"], pairs["doc_b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb
    rows = sorted((d, find(d)) for d in parent)
    return pd.DataFrame(rows, columns=["doc_id", "cluster_id"])


def cluster_pairs_dataset(pairs: rd.Dataset, max_iters: int = 50) -> rd.Dataset:
    """Distributed connected components over a near-dup pairs Dataset by
    iterated min-label propagation: each round every doc takes the min
    label among itself and its neighbors (neighbor labels delivered by a
    partitioned cogroup join), until the label sum stops changing (labels
    only decrease, so an unchanged sum IS the fixpoint). Converges in
    O(component diameter) rounds — near-dup clusters are low-diameter.

    Emits (doc_id, cluster_id) with cluster_id = min doc_id of the
    component — exactly the driver union-find's output, with no driver
    structure proportional to doc or pair count."""
    from ray.data.aggregate import Min, Sum

    from ..pipelines.joins import bucket_hash_join

    def bidir(t: pa.Table) -> pa.Table:
        a = t["doc_a"].combine_chunks()
        b = t["doc_b"].combine_chunks()
        return pa.Table.from_pydict(
            {"src": pa.concat_arrays([a, b]), "dst": pa.concat_arrays([b, a])}
        )

    edges = pairs.select_columns(["doc_a", "doc_b"]).map_batches(
        bidir, batch_format="pyarrow"
    ).materialize()
    # join width ~ edge volume, targeting >=50k edges per bucket: each
    # extra bucket adds fixed per-round shuffle/task overhead (2 cogroup
    # joins x O(rounds)), so width must be earned by data volume —
    # measured: 64k edges across 256 buckets paid ~100 s/round in
    # scheduling on a 32-CPU box vs seconds at 8 buckets
    nb = min(256, max(8, edges.count() // 50_000))

    # init: label(d) = min(d, min neighbor)
    labels = edges.groupby("src").aggregate(Min("dst", alias_name="nmin"))

    def init_lab(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.Table.from_pydict(
            {"doc_id": t["src"],
             "label": pc.min_element_wise(t["src"], t["nmin"])}
        )

    labels = labels.map_batches(init_lab, batch_format="pyarrow").materialize()
    prev_sum = labels.aggregate(Sum("label"))["sum(label)"]

    def msg(t: pa.Table) -> pa.Table:
        # arrow out: the union with the (arrow) labels blocks must be
        # uniform in block type for the aggregate's boundary sampling
        return pa.Table.from_pydict({"doc_id": t["dst"], "label": t["label"]})

    # pointer-doubling side tables: label(d) <- label(label(d)) each round,
    # so chain-shaped components converge in O(log diameter) rounds instead
    # of O(diameter) — a 10^6-long boilerplate chain needs ~20 rounds, not
    # 10^6 (every label value is itself a node id, so the self-join below
    # always finds a parent row)
    def as_ref(t: pa.Table) -> pa.Table:
        return pa.Table.from_pydict({"child": t["doc_id"], "ref": t["label"]})

    def as_parent(t: pa.Table) -> pa.Table:
        return pa.Table.from_pydict({"parent": t["doc_id"], "plabel": t["label"]})

    def jump(t: pa.Table) -> pa.Table:
        return pa.Table.from_pydict({"doc_id": t["child"], "label": t["plabel"]})

    converged = False
    for _ in range(max_iters):
        msgs = bucket_hash_join(
            edges, labels, on="src", right_on="doc_id", n_buckets=nb
        ).map_batches(msg, batch_format="pyarrow")
        # hinted: both sides are lazy renames, which schema probes would run
        lol = bucket_hash_join(
            labels.map_batches(as_ref, batch_format="pyarrow"),
            labels.map_batches(as_parent, batch_format="pyarrow"),
            on="ref", right_on="parent", n_buckets=nb,
            left_dtypes={"child": np.int64, "ref": np.int64},
            right_dtypes={"parent": np.int64, "plabel": np.int64},
        ).map_batches(jump, batch_format="pyarrow")
        labels = (
            msgs.union(lol).union(labels)
            .groupby("doc_id")
            .aggregate(Min("label", alias_name="label"))
            .materialize()
        )
        cur_sum = labels.aggregate(Sum("label"))["sum(label)"]
        if cur_sum == prev_sum:
            converged = True
            break
        prev_sum = cur_sum
    if not converged:
        # never return silently-wrong cluster labels: with pointer doubling
        # max_iters=50 covers diameter ~2^50, so reaching here means the
        # label sum genuinely failed to fix — a bug, not a big graph
        raise RuntimeError(
            f"cluster_pairs_dataset: no label fixpoint after {max_iters} "
            "rounds of min-label propagation + pointer doubling"
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return df.rename(columns={"label": "cluster_id"})

    return labels.map_batches(final, batch_format="pandas")


def _near_dup_clusters(docs: rd.Dataset, threshold: float) -> rd.Dataset | None:
    """MinHash-LSH pairs -> connected components as a (doc_id, cluster_id)
    Dataset, or None when there are no near-dup pairs. Below the pair gate
    the driver union-find kernel runs (bounded, identical output) and is
    lifted back into a Dataset; above it the distributed min-label
    propagation runs — no driver structure proportional to cluster
    membership on that path."""
    pairs = minhash_pairs(docs, threshold=threshold).materialize()
    n_pairs = pairs.count()
    if n_pairs == 0:
        return None
    if n_pairs <= _BROADCAST_PAIR_LIMIT:
        return rd.from_pandas(cluster_pairs(pairs.to_pandas()))
    return cluster_pairs_dataset(pairs)


def dedup_drop_ids(docs: rd.Dataset, threshold: float = 0.5) -> rd.Dataset:
    """Dataset of doc_ids to DROP under near-dedup (every clustered doc
    except its cluster's min doc_id). This is the 100-TB path: cluster
    membership of a web corpus is corpus-scale, so the drop set stays a
    Dataset end-to-end — feed it to ``semi_anti_join(..., anti=True)``."""
    clusters = _near_dup_clusters(docs, threshold)
    if clusters is None:
        return rd.from_arrow(pa.Table.from_pydict({"doc_id": pa.array([], pa.int64())}))

    def drops(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.equal(t["doc_id"], t["cluster_id"])
        return t.filter(pc.invert(keep)).select(["doc_id"])

    return clusters.map_batches(drops, batch_format="pyarrow")


def dedup_keep_list(docs: rd.Dataset, threshold: float = 0.5) -> pd.DataFrame:
    """End-to-end near-dedup: MinHash-LSH pairs -> connected components ->
    keep the min doc_id per cluster. Returns (doc_id, keep) for every doc
    that appears in any near-dup cluster (docs outside clusters are
    implicitly kept).

    Driver-side VIEW for bounded result sets (queries, notebooks). The
    scale path is :func:`dedup_drop_ids` + ``semi_anti_join`` — no
    driver DataFrame proportional to cluster membership."""
    clusters_ds = _near_dup_clusters(docs, threshold)
    if clusters_ds is None:
        return pd.DataFrame({"doc_id": [], "keep": []})
    clusters = clusters_ds.to_pandas()
    clusters = clusters.sort_values("doc_id").reset_index(drop=True)
    clusters["keep"] = clusters["doc_id"] == clusters["cluster_id"]
    return clusters[["doc_id", "keep"]]


# --- simhash ---------------------------------------------------------------


def _simhash(text: str) -> int:
    toks = text.lower().split()
    if not toks:
        return 0
    acc = np.zeros(64, dtype=np.int64)
    for w in toks:
        h = int.from_bytes(hashlib.md5(w.encode("utf-8")).digest()[:8], "little")
        bits = (h >> np.arange(64, dtype=np.uint64)) & 1
        acc += np.where(bits.astype(bool), 1, -1)
    out = 0
    for i in range(64):
        if acc[i] > 0:
            out |= 1 << i
    return out


# vectorized 64-bit popcount via a 16-bit lookup table (numpy 1.26 has no
# np.bitwise_count); built vectorized at import (~256 KB once per process)
_POP16 = (
    np.unpackbits(np.arange(1 << 16, dtype=">u2").view(np.uint8))
    .reshape(1 << 16, 16)
    .sum(axis=1)
    .astype(np.uint8)
)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64 array (any shape)."""
    r = _POP16[(x & np.uint64(0xFFFF)).astype(np.intp)].astype(np.int64)
    for s in (16, 32, 48):
        r += _POP16[
            ((x >> np.uint64(s)) & np.uint64(0xFFFF)).astype(np.intp)
        ]
    return r


# compute ceiling per LSH bucket: pairwise hamming runs between UNIQUE
# signatures only, so this caps the O(u^2) verify matrix (4096^2 = 16.7M
# vectorized popcounts worst case, ~130 MB transient in 512-row chunks),
# NOT the member count — a bucket of 100k copies of one sig collapses to
# u=1. Truncation (smallest sig values kept, deterministic) only triggers
# on > _MAX_UNIQUE_SIGS distinct signatures colliding in ONE 16-bit band
# value, which is adversarial, not organic.
_MAX_UNIQUE_SIGS = 4096


def simhash_pairs(docs: rd.Dataset, max_hamming: int = 3) -> rd.Dataset:
    """Near-duplicate pairs by 64-bit SimHash with 4x16-bit band LSH and
    Hamming-distance verification. Emits (doc_a, doc_b, hamming).

    In-bucket verify is EXACT for organic data (the r5 sf0.1 gate caught
    the old 256-member truncation dropping 2 oracle pairs): members
    collapse to unique signatures first, hamming runs vectorized
    (XOR + 16-bit-table popcount) between unique sigs only, and
    qualifying sig pairs expand back to member pairs. Same-sig clusters
    are hamming-0 by definition and expand directly, bounded at
    ``_MAX_BUCKET`` members per cluster side (lowest ids, deterministic):
    past that a duplicate cluster's inherent O(c^2) pair volume belongs
    in exact_dedup / connected components, not a materialized pair
    list — the bound keeps one map_groups task under ~50 MB however
    pathological the corpus."""

    def sig_batch(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        doc_ids = batch.column("doc_id").to_pylist()
        rows_doc, rows_band, rows_key, rows_sig = [], [], [], []
        for did, t in zip(doc_ids, texts):
            s = _simhash(t)
            for b in range(4):
                rows_doc.append(did)
                rows_band.append(b)
                rows_key.append((s >> (16 * b)) & 0xFFFF)
                rows_sig.append(s)
        return pa.Table.from_arrays(
            [
                pa.array(rows_doc, pa.int64()),
                pa.array(rows_band, pa.int32()),
                pa.array(rows_key, pa.int64()),
                pa.array(np.array(rows_sig, dtype=np.uint64).view(np.int64)),
            ],
            names=["doc_id", "band_idx", "band_key", "sig"],
        )

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        dup_mask = df.duplicated(subset=["band_idx", "band_key"], keep=False)
        sub = df[dup_mask]
        if sub.empty:
            return pd.DataFrame(
                {"doc_a": pd.Series([], dtype="int64"),
                 "doc_b": pd.Series([], dtype="int64"),
                 "hamming": pd.Series([], dtype="int64")}
            )
        out_a: list[np.ndarray] = []
        out_b: list[np.ndarray] = []
        out_h: list[np.ndarray] = []

        def emit(a: np.ndarray, b: np.ndarray, h: np.ndarray) -> None:
            lo = np.minimum(a, b)
            hi = np.maximum(a, b)
            out_a.append(lo)
            out_b.append(hi)
            out_h.append(h)

        for _, g in sub.groupby(["band_idx", "band_key"], sort=False):
            ids = g["doc_id"].to_numpy(np.int64)
            o = np.argsort(ids, kind="stable")
            ids = ids[o]
            sigs = (g["sig"].to_numpy().astype(np.int64).view(np.uint64))[o]
            sig_u, inv = np.unique(sigs, return_inverse=True)
            u = len(sig_u)
            if u > _MAX_UNIQUE_SIGS:
                keep = inv < _MAX_UNIQUE_SIGS
                ids, inv = ids[keep], inv[keep]
                sig_u = sig_u[:_MAX_UNIQUE_SIGS]
                u = _MAX_UNIQUE_SIGS
            # member lists per unique sig (ids ascending within each)
            order = np.argsort(inv, kind="stable")
            m_ids, m_inv = ids[order], inv[order]
            starts = np.searchsorted(m_inv, np.arange(u))
            ends = np.searchsorted(m_inv, np.arange(u), side="right")
            # same-sig clusters: every member pair, hamming 0. Expansion
            # is bounded per cluster at _MAX_BUCKET members (lowest ids
            # kept, deterministic): a >_MAX_BUCKET-copy duplicate cluster
            # would otherwise emit O(c^2) pairs in ONE task (the
            # triu_indices alone is O(c^2) memory) — at the bound that is
            # ~2M pairs / ~50 MB; past it, route clusters through
            # exact_dedup/cluster ids instead of pair materialization.
            for k in np.flatnonzero(ends - starts >= 2):
                mem = m_ids[starts[k]:ends[k]]
                if len(mem) > _MAX_BUCKET:
                    mem = mem[:_MAX_BUCKET]
                ai, bi = np.triu_indices(len(mem), k=1)
                emit(mem[ai], mem[bi],
                     np.zeros(len(ai), dtype=np.int64))
            # cross-sig: vectorized hamming between unique sigs, chunked
            for cs in range(0, u, 512):
                chunk = sig_u[cs:cs + 512]
                ham = _popcount64(chunk[:, None] ^ sig_u[None, :])
                li, j = np.nonzero(ham <= max_hamming)
                i = li + cs
                keep = i < j  # upper triangle only (and skips i == j)
                hv = ham[li[keep], j[keep]]
                for ii, jj, hh in zip(i[keep], j[keep], hv):
                    # same _MAX_BUCKET bound as the same-sig expansion
                    ma = m_ids[starts[ii]:ends[ii]][:_MAX_BUCKET]
                    mb = m_ids[starts[jj]:ends[jj]][:_MAX_BUCKET]
                    emit(
                        np.repeat(ma, len(mb)),
                        np.tile(mb, len(ma)),
                        np.full(len(ma) * len(mb), hh, dtype=np.int64),
                    )
        if not out_a:
            return pd.DataFrame(
                {"doc_a": pd.Series([], dtype="int64"),
                 "doc_b": pd.Series([], dtype="int64"),
                 "hamming": pd.Series([], dtype="int64")}
            )
        return pd.DataFrame(
            {"doc_a": np.concatenate(out_a),
             "doc_b": np.concatenate(out_b),
             "hamming": np.concatenate(out_h)}
        )

    from ..stages.partial_agg import add_hash_bucket

    sigs = docs.map_batches(sig_batch, batch_format="pyarrow")
    bucketed = sigs.map_batches(
        lambda t: add_hash_bucket(t, ["band_idx", "band_key"], _N_HASH_BUCKETS),
        batch_format="pyarrow",
    )
    pairs = bucketed.groupby("bucket").map_groups(
        bucket_pairs, batch_format="pandas"
    ).map_batches(
        _ensure_cols({"doc_a": "int64", "doc_b": "int64", "hamming": "int64"}),
        batch_format="pandas",
    )
    # distributed cross-band pair dedup (hamming is identical for every
    # band-copy of a pair, so Min is a pure dedup) — was a driver-side
    # to_pandas().drop_duplicates()
    from ray.data.aggregate import Min

    return pairs.groupby(["doc_a", "doc_b"]).aggregate(
        Min("hamming", alias_name="hamming")
    )


# --- embedding near-dup ----------------------------------------------------


# per-process hyperplane cache: identical (seeded) matrix across batches —
# was regenerated on every batch call
_PLANES_CACHE: dict[tuple[int, int], np.ndarray] = {}

# emitted-cosine quantization for embedding_near_dup. 4 dp, not 6: the
# SQL twin recomputes the same cosine with a different float association
# (unnest + grouped SUM), which lands ~1e-9 away from the BLAS dot; at a
# 1e-6 rounding grid that noise flips the last digit for ~0.2% of pairs
# (the r5 sf0.1 gate caught one at 2.5e-9 from a boundary), at 1e-4 the
# flip odds drop 100x. 4 dp is semantically ample for near-dup decisions;
# the >= threshold filter runs on the QUANTIZED value on both sides, so
# membership agrees whenever the quantized values do.
_COS_DECIMALS = 4

# embedding-LSH shuffle-amplification gate: with the blob path every unit
# vector rides the LSH shuffle once PER TABLE (n_tables * dim * 8 bytes).
# At sandbox dims (64 x 8 = 512) that wins — in-bucket BLAS beats per-pair
# joins; at production dims (768 x 8 = 6144) it inverts, so above the gate
# only id rows shuffle and vectors ship once per pair side.
_EMB_BLOB_GATE = 1024


def _planes(dim: int, n_cols: int) -> np.ndarray:
    key = (dim, n_cols)
    if key not in _PLANES_CACHE:
        _PLANES_CACHE[key] = np.random.RandomState(_SEED).standard_normal(
            (dim, n_cols)
        )
    return _PLANES_CACHE[key]


def embedding_near_dup(
    embs: rd.Dataset,
    threshold: float = 0.4,
    n_tables: int = 8,
    n_planes: int = 6,
) -> rd.Dataset:
    """Approximate near-duplicate vector pairs by cosine similarity:
    ``n_tables`` independent seeded random-hyperplane LSH tables of
    ``n_planes`` bits each; candidates meet in >=1 table's bucket, then
    exact cosine on the candidate pairs filters at ``threshold``.

    Emits (vec_a, vec_b, cosine), deduplicated across tables. Recall is
    approximate (multi-table OR-amplification); precision is exact.

    Scale shape — ADAPTIVE on shuffle amplification ``dim * n_tables``:

    - blob path (small dim): unit vectors ride the LSH shuffle as binary
      blobs replicated once per table, and each collision set is verified
      with ONE in-bucket matmul (measured: per-pair joins lose to BLAS at
      sandbox dims, commit 4ec0cff).
    - row path (``dim * n_tables > _EMB_BLOB_GATE``): only (vec_id,
      band_idx, band_key) rows ride the LSH shuffle (no ~8x vector blob
      amplification — at 768-dim production embeddings the blob path ships
      ~48 KB/vector); candidate pairs are deduped distributed, then each
      unit vector ships ONCE per pair side via two cogroup joins and the
      cosine is a batched per-pair BLAS dot.

    Hyperplanes are cached per process; cross-table pair dedup is a
    distributed groupby — no driver materialization on either path.
    """
    from ray.data.aggregate import Min

    from ..stages.partial_agg import add_hash_bucket

    # probe the embedding dim from one row (driver-side, O(1))
    probe = embs.take(1)
    if not probe:  # empty input -> schema'd empty pairs, not a crash
        return rd.from_arrow(
            pa.Table.from_pydict(
                {"vec_a": pa.array([], pa.int64()),
                 "vec_b": pa.array([], pa.int64()),
                 "cosine": pa.array([], pa.float64())}
            )
        )
    dim = len(probe[0]["embedding"])
    if dim * n_tables > _EMB_BLOB_GATE:
        return _embedding_near_dup_rows(embs, threshold, n_tables, n_planes)

    def bucketize(batch: pa.Table) -> pa.Table:
        mat = np.array(batch.column("embedding").to_pylist(), dtype=np.float64)
        planes = _planes(mat.shape[1], n_tables * n_planes)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        unit = mat / norms
        bits = (unit @ planes) > 0
        ids = batch.column("vec_id")
        blobs = [row.tobytes() for row in unit]  # binary: survives shuffles
        rows_id, rows_tab, rows_key, rows_unit = [], [], [], []
        for t in range(n_tables):
            chunk = bits[:, t * n_planes : (t + 1) * n_planes]
            keys = (chunk * (1 << np.arange(n_planes))).sum(axis=1).astype(np.int64)
            rows_id.extend(ids.to_pylist())
            rows_tab.extend([t] * len(keys))
            rows_key.extend(keys.tolist())
            rows_unit.extend(blobs)
        return pa.Table.from_arrays(
            [
                pa.array(rows_id, pa.int64()),
                pa.array(rows_tab, pa.int32()),
                pa.array(rows_key, pa.int64()),
                pa.array(rows_unit, pa.binary()),
            ],
            names=["vec_id", "band_idx", "band_key", "unit"],
        )

    def bucket_cos(df: pd.DataFrame) -> pd.DataFrame:
        dup_mask = df.duplicated(subset=["band_idx", "band_key"], keep=False)
        sub = df[dup_mask]
        if sub.empty:
            return pd.DataFrame(
                {"vec_a": pd.Series([], dtype="int64"),
                 "vec_b": pd.Series([], dtype="int64"),
                 "cosine": pd.Series([], dtype="float64")}
            )
        out_a: list[np.ndarray] = []
        out_b: list[np.ndarray] = []
        out_c: list[np.ndarray] = []
        for _, g in sub.groupby(["band_idx", "band_key"], sort=False):
            g = g.sort_values("vec_id")
            ids = g["vec_id"].to_numpy()
            if len(ids) > _MAX_BUCKET:
                ids = ids[:_MAX_BUCKET]
                g = g.head(_MAX_BUCKET)
            mat = np.stack(
                [np.frombuffer(b, dtype=np.float64) for b in g["unit"]]
            )
            cos = mat @ mat.T
            a, b = np.triu_indices(len(ids), k=1)
            vals = np.round(cos[a, b], _COS_DECIMALS)
            keep = vals >= threshold
            out_a.append(ids[a][keep])
            out_b.append(ids[b][keep])
            out_c.append(vals[keep])
        return pd.DataFrame(
            {"vec_a": pd.Series(np.concatenate(out_a), dtype="int64"),
             "vec_b": pd.Series(np.concatenate(out_b), dtype="int64"),
             "cosine": pd.Series(np.concatenate(out_c), dtype="float64")}
        )

    buckets = embs.map_batches(bucketize, batch_format="pyarrow").map_batches(
        lambda t: add_hash_bucket(t, ["band_idx", "band_key"], _N_HASH_BUCKETS),
        batch_format="pyarrow",
    )
    pairs = buckets.groupby("bucket").map_groups(
        bucket_cos, batch_format="pandas"
    ).map_batches(
        _ensure_cols({"vec_a": "int64", "vec_b": "int64", "cosine": "float64"}),
        batch_format="pandas",
    )
    # distributed cross-table dedup (cosine identical per pair; Min = dedup)
    return pairs.groupby(["vec_a", "vec_b"]).aggregate(
        Min("cosine", alias_name="cosine")
    )


def _embedding_near_dup_rows(
    embs: rd.Dataset, threshold: float, n_tables: int, n_planes: int
) -> rd.Dataset:
    """High-dim path of :func:`embedding_near_dup`: the LSH shuffle carries
    only (vec_id, band_idx, band_key) rows; unit vectors ship once per pair
    side through cogroup joins after distributed candidate-pair dedup."""
    from ..pipelines.joins import bucket_hash_join
    from ..stages.partial_agg import add_hash_bucket

    def bucketize_ids(batch: pa.Table) -> pa.Table:
        mat = np.array(batch.column("embedding").to_pylist(), dtype=np.float64)
        planes = _planes(mat.shape[1], n_tables * n_planes)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        bits = ((mat / norms) @ planes) > 0
        ids = batch.column("vec_id").to_pylist()
        rows_id, rows_tab, rows_key = [], [], []
        for t in range(n_tables):
            chunk = bits[:, t * n_planes : (t + 1) * n_planes]
            keys = (chunk * (1 << np.arange(n_planes))).sum(axis=1).astype(np.int64)
            rows_id.extend(ids)
            rows_tab.extend([t] * len(keys))
            rows_key.extend(keys.tolist())
        return pa.Table.from_arrays(
            [pa.array(rows_id, pa.int64()),
             pa.array(rows_tab, pa.int32()),
             pa.array(rows_key, pa.int64())],
            names=["doc_id", "band_idx", "band_key"],
        )

    buckets = embs.map_batches(bucketize_ids, batch_format="pyarrow").map_batches(
        lambda t: add_hash_bucket(t, ["band_idx", "band_key"], _N_HASH_BUCKETS),
        batch_format="pyarrow",
    )
    cand = (
        buckets.groupby("bucket")
        .map_groups(
            lambda df: _lsh_candidate_pairs(df, ["band_idx", "band_key"]),
            batch_format="pandas",
        )
        .map_batches(
            _ensure_cols({"doc_a": "int64", "doc_b": "int64"}),
            batch_format="pandas",
        )
        .groupby(["doc_a", "doc_b"])
        .count()
        .select_columns(["doc_a", "doc_b"])
        .materialize()
    )
    n_cand = cand.count()
    if n_cand == 0:
        return rd.from_pandas(
            pd.DataFrame(
                {"vec_a": pd.Series([], dtype="int64"),
                 "vec_b": pd.Series([], dtype="int64"),
                 "cosine": pd.Series([], dtype="float64")}
            )
        )

    def unit_blob(names: list[str]):
        def fn(batch: pa.Table) -> pa.Table:
            mat = np.array(batch.column("embedding").to_pylist(), dtype=np.float64)
            norms = np.linalg.norm(mat, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            unit = mat / norms
            return pa.Table.from_arrays(
                [batch.column("vec_id").cast(pa.int64()),
                 pa.array([row.tobytes() for row in unit], pa.binary())],
                names=names,
            )

        return fn

    u_a = embs.map_batches(unit_blob(["doc_a", "ua"]), batch_format="pyarrow")
    u_b = embs.map_batches(unit_blob(["doc_b", "ub"]), batch_format="pyarrow")
    nb = min(256, max(8, n_cand // 20_000))
    # materialized between the chained cogroups (schema-probe re-execution)
    j = bucket_hash_join(cand, u_a, on="doc_a", n_buckets=nb).materialize()
    j = bucket_hash_join(j, u_b, on="doc_b", n_buckets=nb)

    def cos_pairs(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {"vec_a": pd.Series([], dtype="int64"),
                 "vec_b": pd.Series([], dtype="int64"),
                 "cosine": pd.Series([], dtype="float64")}
            )
        A = np.stack([np.frombuffer(x, dtype=np.float64) for x in df["ua"]])
        B = np.stack([np.frombuffer(x, dtype=np.float64) for x in df["ub"]])
        # batched per-pair BLAS dot (matmul over stacked row pairs)
        vals = np.round(
            np.matmul(A[:, None, :], B[:, :, None]).ravel(), _COS_DECIMALS
        )
        out = pd.DataFrame(
            {"vec_a": df["doc_a"].to_numpy(dtype=np.int64),
             "vec_b": df["doc_b"].to_numpy(dtype=np.int64),
             "cosine": vals}
        )
        return out[out["cosine"] >= threshold]

    return j.map_batches(cos_pairs, batch_format="pandas")


# --- sorted-neighborhood (SNM) dedup ---------------------------------------
# Hernandez & Stolfo 1995 ("The merge/purge problem"): sort the corpus by a
# blocking key, then compare only records within a fixed-size sliding window
# of the sorted order — O(n*w) candidate pairs instead of O(n^2), catching
# near-duplicates whose noisy variants agree on a key prefix. The classic
# third member of the blocking family next to LSH banding (minhash_pairs)
# and bit-banding (simhash_pairs).

_SNM_WINDOW = 5
_SNM_KEY_LEN = 16
# keep pairs with token-set Jaccard >= 9/10, compared as integers
# (10*inter >= 9*uni) so the oracle has NO float envelope at all
_SNM_TAU_NUM, _SNM_TAU_DEN = 9, 10


def _snm_keys_batch(t: pa.Table) -> pa.Table:
    """(doc_id, snm_key) per row: the SNM blocking key is the first 16
    chars of the lowercased text with every non-[a-z0-9] run stripped —
    vectorized Arrow kernels only, ASCII-only output so Arrow / pandas /
    DuckDB byte orderings of the key all agree."""
    import pyarrow.compute as pc

    squash = pc.replace_substring_regex(
        pc.utf8_lower(t.column("text")), r"[^a-z0-9]+", ""
    )
    return pa.table({
        "doc_id": t.column("doc_id"),
        "snm_key": pc.utf8_slice_codeunits(squash, 0, _SNM_KEY_LEN),
    })


def _snm_window_pairs(ids: np.ndarray, window: int):
    """All canonical (min,max) id pairs at sorted-rank distance
    1..window-1 within ONE contiguous rank run (``ids`` already in global
    sort order). Vectorized: rank distance d pairs are zip(ids, ids[d:])."""
    outs_a: list[np.ndarray] = []
    outs_b: list[np.ndarray] = []
    n = ids.size
    for d in range(1, window):
        if d >= n:
            break
        outs_a.append(ids[:-d])
        outs_b.append(ids[d:])
    if not outs_a:
        z = np.array([], dtype=np.int64)
        return z, z
    a = np.concatenate(outs_a)
    b = np.concatenate(outs_b)
    return np.minimum(a, b).astype(np.int64), np.maximum(a, b).astype(np.int64)


def _snm_token_hashes(text: str) -> np.ndarray:
    """Sorted unique 61-bit md5-le64 hashes of the doc's lowercased
    whitespace tokens, replayed bit-for-bit by the oracle
    (`_md5_le64_terms`). A token-less doc yields an EMPTY set (its pairs
    then fail the verify below, mirroring the oracle's inner joins which
    drop such docs)."""
    toks = np.unique(np.array(text.lower().split(), dtype=object))
    if toks.size == 0:
        return np.empty(0, dtype=np.uint64)
    out = np.empty(toks.size, dtype=np.uint64)
    for i, tk in enumerate(toks):
        out[i] = int.from_bytes(
            hashlib.md5(tk.encode("utf-8")).digest()[:8], "little"
        ) % _MERSENNE
    return np.unique(out)


def _snm_verify(tok_of: dict, a: np.ndarray, b: np.ndarray) -> pd.DataFrame:
    """Exact token-set Jaccard verify of candidate id pairs against a
    doc_id -> sorted-unique-hash-array lookup; keeps pairs passing the
    integer threshold. Shared by the local path and the broadcast leg."""
    keep_a: list[int] = []
    keep_b: list[int] = []
    keep_i: list[int] = []
    keep_u: list[int] = []
    for x, y in zip(a, b):
        sa = tok_of[int(x)]
        sb = tok_of[int(y)]
        inter = np.intersect1d(sa, sb, assume_unique=True).size
        uni = sa.size + sb.size - inter
        # uni == 0 (two token-less docs) never emits: the SQL twin's
        # inner joins drop docs with no tokens, and 0 >= 0 would
        # otherwise pass the integer threshold vacuously
        if uni > 0 and _SNM_TAU_DEN * inter >= _SNM_TAU_NUM * uni:
            keep_a.append(int(x))
            keep_b.append(int(y))
            keep_i.append(inter)
            keep_u.append(uni)
    return pd.DataFrame({
        "doc_a": pd.Series(keep_a, dtype="int64"),
        "doc_b": pd.Series(keep_b, dtype="int64"),
        "inter": pd.Series(keep_i, dtype="int64"),
        "uni": pd.Series(keep_u, dtype="int64"),
    })


def snm_pairs(docs: rd.Dataset, window: int = _SNM_WINDOW) -> pd.DataFrame:
    """Sorted-neighborhood near-duplicate pairs: sort every doc by
    (snm_key, doc_id), compare each doc to its <= window-1 successors in
    the sorted order, keep pairs whose exact distinct-token-set Jaccard
    clears 9/10 (integer-compared). Emits (doc_a, doc_b, inter, uni),
    canonical doc_a < doc_b, one row per unordered pair.

    Scale shape (the 100 TB design):
    - the sort exchange carries ONLY (snm_key[16], doc_id) — the payload
      never shuffles; this is the one wide step.
    - pair generation is split like the shared carry-scan
      (ocr_ray.stages.carry_scan) splits its seam walk: in-block pairs
      come from a vectorized per-block pass (ranks inside
      a sorted block are contiguous, so distance-d pairs are plain array
      shifts), and the O(blocks*window) head/tail boundary rows are the
      ONLY rows the driver sees — it prefix-walks block counts to global
      ranks and emits the cross-block pairs locally (every cross-block
      pair has both ends within window-1 of a block edge, so the
      boundary set is sufficient; same-block pairs found there are
      skipped as the per-block pass owns them).
    - verify never broadcasts the corpus: above the pair gate the
      (doc_id, token-hash-set) table ships to its pairs via the same
      partitioned `bucket_hash_join` legs minhash_pairs uses. Every
      doc is a candidate by construction (each has a window), so there
      is no Bloom semi-filter step — the tok table IS the corpus
      projection.
    """
    import ray

    from ..pipelines.joins import bucket_hash_join
    from ..stages.partial_agg import from_pandas as _fp
    from ..stages.partial_agg import local_table

    w = int(window)
    if w < 2:
        raise ValueError("snm window must be >= 2")

    empty = pd.DataFrame({
        "doc_a": pd.Series([], dtype="int64"),
        "doc_b": pd.Series([], dtype="int64"),
        "inter": pd.Series([], dtype="int64"),
        "uni": pd.Series([], dtype="int64"),
    })

    full = local_table(docs, "snm", pa.schema(
        [("doc_id", pa.int64()), ("text", pa.string())]))
    if full is not None:
        # driver-local path through the IDENTICAL kernels: one pull of
        # (doc_id, text), key batch -> pandas sort -> single-run pair
        # generation -> dict verify. Bit-equal to the distributed plan
        # by construction (forced-distributed parity test pins both).
        keys = _snm_keys_batch(full).to_pandas()
        keys = keys.sort_values(["snm_key", "doc_id"], kind="mergesort")
        a, b = _snm_window_pairs(keys["doc_id"].to_numpy(np.int64), w)
        tok_of = {
            int(did): _snm_token_hashes(txt)
            for did, txt in zip(full.column("doc_id").to_pylist(),
                                full.column("text").to_pylist())
        }
        out = _snm_verify(tok_of, a, b)
        return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)

    # ---- distributed plan ----
    from ..stages.carry_scan import cluster_cpus

    nblocks = cluster_cpus()
    sorted_ds = (
        docs.map_batches(_snm_keys_batch, batch_format="pyarrow")
        .repartition(nblocks)
        .sort(["snm_key", "doc_id"])
        .materialize()
    )
    if not sorted_ds.count():  # materialized: metadata only
        return empty

    _BOUND = pa.schema([
        ("bk_key", pa.string()), ("bk_id", pa.int64()),
        ("cnt", pa.int64()), ("loc", pa.int64()), ("doc_id", pa.int64()),
    ])

    def boundary_rows(t: pa.Table) -> pa.Table:
        # batch == block (batch_size=None on a materialized sorted ds):
        # emit this block's head/tail rows + its boundary identity
        n = t.num_rows
        if n == 0:
            return _BOUND.empty_table()
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        k0 = str(t.column("snm_key")[0].as_py())
        i0 = int(ids[0])
        loc = np.arange(n, dtype=np.int64)
        mask = (loc < w - 1) | (loc >= n - (w - 1))
        sel = loc[mask]
        return pa.Table.from_pydict({
            "bk_key": [k0] * sel.size,
            "bk_id": np.full(sel.size, i0, dtype=np.int64),
            "cnt": np.full(sel.size, n, dtype=np.int64),
            "loc": sel,
            "doc_id": ids[mask].astype(np.int64),
        }, schema=_BOUND)

    bound = sorted_ds.map_batches(
        boundary_rows, batch_size=None, batch_format="pyarrow"
    ).to_pandas()  # O(blocks * window) rows

    # driver seam walk: block start ranks by boundary order, then the
    # cross-block pairs among the boundary rows (both ends of any
    # cross-block pair are within window-1 of a block edge)
    cross = empty[["doc_a", "doc_b"]]
    if len(bound):
        blocks = (
            bound[["bk_key", "bk_id", "cnt"]]
            .drop_duplicates()
            .sort_values(["bk_key", "bk_id"], kind="mergesort")
            .reset_index(drop=True)
        )
        starts = np.r_[0, np.cumsum(blocks["cnt"].to_numpy(np.int64))[:-1]]
        blocks["start"] = starts
        blocks["blk"] = np.arange(len(blocks), dtype=np.int64)
        bb = bound.merge(blocks, on=["bk_key", "bk_id", "cnt"], how="left")
        bb["rank"] = bb["start"] + bb["loc"]
        bb = bb.sort_values("rank", kind="mergesort").reset_index(drop=True)
        r = bb["rank"].to_numpy(np.int64)
        ids_b = bb["doc_id"].to_numpy(np.int64)
        blk = bb["blk"].to_numpy(np.int64)
        ca: list[int] = []
        cb: list[int] = []
        m = len(bb)
        for i in range(m):
            j = i + 1
            while j < m and r[j] - r[i] <= w - 1:
                if blk[j] != blk[i]:
                    ca.append(int(min(ids_b[i], ids_b[j])))
                    cb.append(int(max(ids_b[i], ids_b[j])))
                j += 1
        cross = pd.DataFrame({
            "doc_a": pd.Series(ca, dtype="int64"),
            "doc_b": pd.Series(cb, dtype="int64"),
        })

    _PAIR = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64())])

    def inblock_pairs(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _PAIR.empty_table()
        a, b = _snm_window_pairs(
            t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64), w
        )
        return pa.Table.from_pydict({"doc_a": a, "doc_b": b}, schema=_PAIR)

    pairs = sorted_ds.map_batches(
        inblock_pairs, batch_size=None, batch_format="pyarrow"
    )
    if len(cross):
        pairs = pairs.union(rd.from_arrow(_fp(cross)))
    pairs = pairs.materialize()

    # ---- verify: ship each doc's token-hash set to its pairs ----
    def tok_blob(t: pa.Table) -> pa.Table:
        out_id, out_tk = [], []
        for did, txt in zip(t.column("doc_id").to_pylist(),
                            t.column("text").to_pylist()):
            out_id.append(did)
            out_tk.append(_snm_token_hashes(txt).tobytes())
        return pa.Table.from_pydict(
            {"doc_id": pa.array(out_id, pa.int64()),
             "tk": pa.array(out_tk, pa.binary())}
        )

    def rename_arrow(cols: list[str]):
        def fn(t: pa.Table) -> pa.Table:
            return t.rename_columns(cols)
        return fn

    n_pairs = pairs.count()
    # hash the corpus ONCE; the two join legs are zero-copy renames of
    # the same materialized blob table (the minhash sh_ds idiom)
    tok_ds = docs.map_batches(tok_blob, batch_format="pyarrow").materialize()
    tok_a = tok_ds.map_batches(
        rename_arrow(["doc_a", "tk_a"]), batch_format="pyarrow")
    tok_b = tok_ds.map_batches(
        rename_arrow(["doc_b", "tk_b"]), batch_format="pyarrow")
    nb = min(256, max(8, n_pairs // 20_000))
    # materialized between the chained cogroups (schema-probe re-execution)
    j = bucket_hash_join(pairs, tok_a, on="doc_a", n_buckets=nb).materialize()
    j = bucket_hash_join(j, tok_b, on="doc_b", n_buckets=nb)

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return empty
        tok_of = {}
        a = df["doc_a"].to_numpy(np.int64)
        b = df["doc_b"].to_numpy(np.int64)
        for x, blob in zip(a, df["tk_a"]):
            tok_of[int(x)] = np.frombuffer(blob, dtype=np.uint64)
        for y, blob in zip(b, df["tk_b"]):
            tok_of[int(y)] = np.frombuffer(blob, dtype=np.uint64)
        return _snm_verify(tok_of, a, b)

    out = (
        j.map_batches(verify, batch_format="pandas")
        .map_batches(_ensure_cols(
            {"doc_a": "int64", "doc_b": "int64",
             "inter": "int64", "uni": "int64"}), batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)

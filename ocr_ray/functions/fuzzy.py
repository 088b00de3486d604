"""Edit-distance (Levenshtein) similarity join — the string-similarity
join class the engine previously lacked (record linkage / fuzzy matching).

``edit_distance_join`` is a PassJoin-style filter-verify join (Li, Deng,
Feng: "PASS-JOIN: a partition-based method for similarity joins", PVLDB
2011 — public literature):

1. **Partition (build side)**: each build string of length L is split
   into k+1 contiguous segments. Pigeonhole: if edit_dist(r, s) <= k,
   at least one of r's k+1 segments survives UNEDITED and appears in s
   as an exact substring, start-shifted by at most k.
2. **Probe enumeration**: each probe string of length M emits, for every
   candidate build length L in [M-k, M+k], every segment index, and
   every start shift in [-k, k], the corresponding substring key. Keys
   are (L, seg_idx, substring) md5-hashed to int64 — candidate
   generation is a plain equi-join, ONE hash-bucket shuffle, no
   all-pairs step anywhere.
3. **Verify**: in-bucket char-frequency L1 prefilter (each edit moves
   the histogram by at most 2, so L1 > 2k refutes without a DP), then
   an exact banded Levenshtein DP (O(len * k) per survivor). Results
   carry the exact distance; duplicates from multi-segment matches are
   collapsed by a final grouped min (distances are identical, min is a
   dedup).

Scale shape: probe amplification is bounded by (2k+1)^2 * (k+1) keys
per row (75 at k=2) of segment-sized strings; candidates meet in hash
buckets sized by key frequency, never by corpus size. Strings ride the
exploded rows (fine at prefix lengths; at book-length payloads you'd
ship ids and gather survivors through the adaptive cogroup fetch the
minhash verify uses). Degenerate guard: strings shorter than k+1 chars
produce zero-length segments whose keys match everything of the banded
lengths — still a correct superset, just unselective; keep k << len.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

__all__ = ["banded_levenshtein", "edit_distance_join", "fuzzy_variant_join"]


def banded_levenshtein(a: str, b: str, k: int) -> int:
    """Exact unit-cost Levenshtein distance if <= k, else k+1.

    Ukkonen band: only cells with |i-j| <= k are computed; values are
    clamped at k+1 (they can never recover below k across the band).
    Matches DuckDB's ``levenshtein`` (insert/delete/substitute on
    codepoints) on every pair the join emits — pinned by the
    ``docs_fuzzy_join`` oracle and the brute-force pytest."""
    la, lb = len(a), len(b)
    if abs(la - lb) > k:
        return k + 1
    big = k + 1
    prev = [j if j <= k else big for j in range(lb + 1)]
    for i in range(1, la + 1):
        cur = [big] * (lb + 1)
        if i <= k:
            cur[0] = i
        ca = a[i - 1]
        lo = max(1, i - k)
        hi = min(lb, i + k)
        for j in range(lo, hi + 1):
            v = prev[j - 1] + (ca != b[j - 1])
            w = prev[j] + 1
            if w < v:
                v = w
            w = cur[j - 1] + 1
            if w < v:
                v = w
            cur[j] = v if v <= k else big
        prev = cur
    return prev[lb] if prev[lb] <= k else big


def _segments(L: int, k: int) -> list[tuple[int, int]]:
    """k+1 contiguous (start, length) segments evenly partitioning [0, L)
    — shorter segments first (any fixed even partition satisfies the
    pigeonhole lemma; this order matches the probe's enumeration)."""
    nseg = k + 1
    base, extra = divmod(L, nseg)
    out = []
    pos = 0
    for i in range(nseg):
        ln = base + (1 if i >= nseg - extra else 0)
        out.append((pos, ln))
        pos += ln
    return out


def _key64(L: int, i: int, seg: str) -> int:
    dig = hashlib.md5(f"{L}:{i}:{seg}".encode("utf-8")).digest()
    return int.from_bytes(dig[:8], "little") % ((1 << 61) - 1)


def edit_distance_join(
    left: rd.Dataset,
    right: rd.Dataset,
    left_id: str,
    right_id: str,
    k: int = 2,
    text_col: str = "s",
    n_buckets: int = 64,
) -> rd.Dataset:
    """All (left, right) pairs with Levenshtein distance <= k between
    their ``text_col`` strings, with the exact distance attached:
    (left_id, right_id, dist). Left is the partitioned build side, right
    the enumerating probe side (cheapest with the longer-strings /
    larger side as probe is a wash at equal lengths; pick either)."""
    import ray

    from ..stages.partial_agg import (add_hash_bucket, compact_nonempty,
                                      grouped_agg)

    # the build side is consumed twice (length scan + key explode):
    # materialize once so a lazy upstream plan is not re-executed (the
    # round-4 schema-probe lesson, joins.py)
    left = compact_nonempty(left.materialize())

    # distinct build-side string lengths (tiny: bounded by max string
    # length), broadcast once — probes enumerate only lengths that exist
    # instead of all 2k+1 candidates (uniform-length corpora skip ~half
    # the key amplification)
    def len_partial(t: pa.Table) -> pa.Table:
        ls = np.unique([len(s) for s in t.column(text_col).to_pylist()])
        return pa.table({"L": ls.astype(np.int64)})

    lens = np.unique(
        left.map_batches(len_partial, batch_format="pyarrow")
        .to_pandas()["L"].to_numpy()
    )
    lens_ref = ray.put(set(int(x) for x in lens))

    def build_keys(t: pa.Table) -> pa.Table:
        ids = t.column(left_id).to_numpy(zero_copy_only=False)
        ss = t.column(text_col).to_pylist()
        kk, ii, st = [], [], []
        for rid, s in zip(ids, ss):
            L = len(s)
            for i, (p, ln) in enumerate(_segments(L, k)):
                kk.append(_key64(L, i, s[p:p + ln]))
                ii.append(rid)
                st.append(s)
        return pa.table({
            "khash": pa.array(kk, pa.int64()),
            "_lid": pa.array(ii, pa.int64()),
            "_ls": pa.array(st, pa.string()),
        })

    def probe_keys(t: pa.Table) -> pa.Table:
        build_lens = ray.get(lens_ref)
        ids = t.column(right_id).to_numpy(zero_copy_only=False)
        ss = t.column(text_col).to_pylist()
        kk, ii, st = [], [], []
        for rid, s in zip(ids, ss):
            M = len(s)
            seen: set[int] = set()
            for L in range(max(0, M - k), M + k + 1):
                if L not in build_lens:
                    continue
                for i, (p, ln) in enumerate(_segments(L, k)):
                    for shift in range(-k, k + 1):
                        q = p + shift
                        if q < 0 or q + ln > M:
                            continue
                        h = _key64(L, i, s[q:q + ln])
                        if h not in seen:
                            seen.add(h)
                            kk.append(h)
                            ii.append(rid)
                            st.append(s)
        return pa.table({
            "khash": pa.array(kk, pa.int64()),
            "_rid": pa.array(ii, pa.int64()),
            "_rs": pa.array(st, pa.string()),
        })

    lk = left.map_batches(build_keys, batch_format="pyarrow")
    rk = right.map_batches(probe_keys, batch_format="pyarrow")

    def tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            # one unified schema for both sides so the tagged union's
            # blocks hash identically (side 0 = build, 1 = probe)
            n = t.num_rows
            zeros = pa.array(np.zeros(n, dtype=np.int64))
            empt = pa.array([""] * n, pa.string())
            if side == 0:
                return pa.table({
                    "khash": t.column("khash"), "side": zeros,
                    "lid": t.column("_lid"), "ls": t.column("_ls"),
                    "rid": zeros, "rs": empt,
                })
            ones = pa.array(np.ones(n, dtype=np.int64))
            return pa.table({
                "khash": t.column("khash"), "side": ones,
                "lid": zeros, "ls": empt,
                "rid": t.column("_rid"), "rs": t.column("_rs"),
            })
        return fn

    both = lk.map_batches(tag(0), batch_format="pyarrow").union(
        rk.map_batches(tag(1), batch_format="pyarrow")
    ).repartition(n_buckets)

    empty = pa.table({
        left_id: pa.array([], pa.int64()),
        right_id: pa.array([], pa.int64()),
        "dist": pa.array([], pa.int64()),
    })

    def bucket_verify(df: pd.DataFrame) -> pa.Table:
        b = df[df["side"] == 0]
        p = df[df["side"] == 1]
        if b.empty or p.empty:
            return empty
        cand = b[["khash", "lid", "ls"]].merge(
            p[["khash", "rid", "rs"]], on="khash"
        ).drop_duplicates(["lid", "rid"])
        if cand.empty:
            return empty
        # char-frequency L1 prefilter (necessary condition: each edit
        # moves the CODEPOINT histogram by <= 2; codepoints > 255 share
        # one bin, which only loosens the bound — bytes would NOT work,
        # a multi-byte substitution moves up to 8 byte-bins)
        uniq = pd.unique(pd.concat([cand["ls"], cand["rs"]]))
        mats = {}
        for s in uniq:
            cs = np.frombuffer(s.encode("utf-32-le"), np.uint32)
            mats[s] = np.bincount(np.minimum(cs, 255), minlength=256)
        l1 = np.array([
            np.abs(mats[a] - mats[b2]).sum()
            for a, b2 in zip(cand["ls"], cand["rs"])
        ])
        cand = cand[l1 <= 2 * k]
        out_l, out_r, out_d = [], [], []
        for a, b2, la, ra in zip(cand["ls"], cand["rs"],
                                 cand["lid"], cand["rid"]):
            d = banded_levenshtein(a, b2, k)
            if d <= k:
                out_l.append(la)
                out_r.append(ra)
                out_d.append(d)
        return pa.table({
            left_id: pa.array(out_l, pa.int64()),
            right_id: pa.array(out_r, pa.int64()),
            "dist": pa.array(out_d, pa.int64()),
        })

    verified = (
        both.map_batches(
            lambda t: add_hash_bucket(t, ["khash"], n_buckets),
            batch_format="pyarrow",
        )
        .groupby("bucket")
        .map_groups(bucket_verify, batch_format="pandas")
    )
    # a pair found via multiple surviving segments appears once per
    # distinct bucket that matched it — grouped min collapses exact dups
    return grouped_agg(verified, [left_id, right_id], count_alias=None,
                       min_cols=["dist"])


# --- derived-variants query shaping (docs_fuzzy_join) -----------------------


_PREFIX = 40


def _prefix_rows(t: pa.Table) -> pa.Table:
    ids = t.column("doc_id")
    ss = [s[:_PREFIX] for s in t.column("text").to_pylist()]
    return pa.table({"doc_id": ids, "s": pa.array(ss, pa.string())})


def _variant_rows(t: pa.Table) -> pa.Table:
    """Deterministic noisy copies (the tpch_ext derived-relation pattern:
    the same formula is replayed in the oracle's CTE): per doc_id % 4 —
    exact copy / last-char deletion / first-char substitution / 'Z'
    insertion. Exercises dist 0 and 1 plus all three edit kinds."""
    ids = t.column("doc_id").to_numpy(zero_copy_only=False)
    out = []
    for d, s in zip(ids, t.column("text").to_pylist()):
        s = s[:_PREFIX]
        m = d % 4
        if m == 1:
            s = s[:-1]
        elif m == 2:
            s = "Z" + s[1:]
        elif m == 3:
            s = "Z" + s
        out.append(s)
    return pa.table({"vid": pa.array(ids, pa.int64()),
                     "s": pa.array(out, pa.string())})


def fuzzy_variant_join(sf_dir: str, k: int = 2) -> rd.Dataset:
    """The docs_fuzzy_join query: originals' 40-char prefixes fuzzily
    joined (dist <= 2) against the derived variants relation."""
    import os

    from ..pqread import read_parquet

    docs = read_parquet(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "text"])
    orig = docs.map_batches(_prefix_rows, batch_format="pyarrow")
    var = docs.map_batches(_variant_rows, batch_format="pyarrow")
    return edit_distance_join(orig, var, left_id="doc_id",
                              right_id="vid", k=k)

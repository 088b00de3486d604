"""Deterministic hash sampling / stratified split + hopping window."""

import numpy as np
import pandas as pd
import pyarrow as pa


def test_hash_sample_deterministic_and_partition_independent(ray_session):
    import ray.data as rd

    from ocr_ray.functions.sampling import hash_sample, key_hash64

    df = pd.DataFrame({"doc_id": np.arange(1000, dtype=np.int64), "x": 1})
    a = set(
        hash_sample(rd.from_pandas(df), "doc_id", pct=25).to_pandas()["doc_id"]
    )
    # different partitioning, shuffled row order -> identical sample
    shuffled = df.sample(frac=1.0, random_state=7).reset_index(drop=True)
    b = set(
        hash_sample(
            rd.from_pandas(shuffled).repartition(7), "doc_id", pct=25
        ).to_pandas()["doc_id"]
    )
    assert a == b
    # matches the per-key predicate exactly
    h = key_hash64(df["doc_id"].tolist())
    want = set(df["doc_id"][(h % np.uint64(100)) < 25])
    assert a == want
    assert 0.15 < len(a) / 1000 < 0.35  # ~25%


def test_stratified_split_exhaustive_and_stable(ray_session):
    import ray.data as rd

    from ocr_ray.functions.sampling import stratified_split

    df = pd.DataFrame({"doc_id": np.arange(500, dtype=np.int64)})
    out = stratified_split(rd.from_pandas(df), "doc_id").to_pandas()
    assert len(out) == 500 and set(out["split"]) == {"train", "val", "test"}
    frac = out["split"].value_counts(normalize=True)
    assert frac["train"] > 0.6  # ~80/10/10
    out2 = stratified_split(rd.from_pandas(df).repartition(5), "doc_id").to_pandas()
    merged = out.merge(out2, on="doc_id", suffixes=("_a", "_b"))
    assert (merged["split_a"] == merged["split_b"]).all()


def test_stratified_topn_balanced_and_partition_independent(ray_session):
    """Per-group deterministic top-n: exactly n per group, hash-ordered,
    identical across repartitionings (order independence)."""
    import pyarrow as pa

    import ray.data as rd

    from ocr_ray.functions.sampling import key_hash64, stratified_topn

    rows = [{"doc_id": i, "lang": ["en", "de", "fr"][i % 3]} for i in range(90)]
    t = pa.Table.from_pylist(rows)
    a = stratified_topn(rd.from_arrow(t), "lang", "doc_id", 5).to_pandas()
    b = stratified_topn(
        rd.from_arrow(t).repartition(7), "lang", "doc_id", 5
    ).to_pandas()
    key = lambda df: df.sort_values(["lang", "rank"]).reset_index(drop=True)  # noqa: E731
    a, b = key(a), key(b)
    assert a.equals(b)
    assert (a.groupby("lang").size() == 5).all()
    # rank order == hash order within each group (brute check for one group)
    en = [r["doc_id"] for r in rows if r["lang"] == "en"]
    want = sorted(en, key=lambda d: (int(key_hash64([d])[0]), d))[:5]
    assert a[a["lang"] == "en"]["doc_id"].tolist() == want


def test_key_hash64_dtypes():
    """Integer and string keys hash (strings as their own bytes, ints as
    decimal strings == DuckDB VARCHAR cast); floats are rejected loudly
    instead of silently truncated."""
    import hashlib

    import pytest

    from ocr_ray.functions.sampling import key_hash64

    got = key_hash64([7, "7", "abc"])
    want7 = int.from_bytes(hashlib.md5(b"7").digest()[:8], "little")
    assert got[0] == want7 and got[1] == want7
    assert got[2] == int.from_bytes(hashlib.md5(b"abc").digest()[:8], "little")
    with pytest.raises(TypeError, match="integers or strings"):
        key_hash64([1.5])


def test_hopping_window_matches_pandas_brute(ray_session):
    """Every event lands in exactly LEN/STEP windows; counts/sums match a
    brute-force pandas replay on the sf0.001 events table."""
    import pyarrow.parquet as pq

    from ocr_ray.pipelines.streaming import HOP_LEN_MIN, HOP_STEP_MIN, hopping_window

    sf = "/root/testdata/sf0.001"
    got = hopping_window(sf)
    ev = pq.read_table(
        sf + "/events.parquet", columns=["user_id", "ts", "value"]
    ).to_pandas()
    step = pd.Timedelta(minutes=HOP_STEP_MIN)
    n_win = HOP_LEN_MIN // HOP_STEP_MIN
    rows = []
    for r in ev.itertuples(index=False):
        base = r.ts.floor(f"{HOP_STEP_MIN}min")
        for k in range(n_win):
            rows.append((r.user_id, base - k * step, round(r.value * 100)))
    brute = pd.DataFrame(rows, columns=["user_id", "window_start", "c"])
    want = (
        brute.groupby(["user_id", "window_start"], as_index=False)
        .agg(n=("c", "size"), c=("c", "sum"))
    )
    want["sum_value"] = want["c"] / 100.0
    want = want[["user_id", "window_start", "n", "sum_value"]].sort_values(
        ["user_id", "window_start"]
    ).reset_index(drop=True)
    got = got.sort_values(["user_id", "window_start"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.astype({"n": "int64"}), want.astype({"n": "int64"}), check_dtype=False
    )


def test_curation_dag_invariants(ray_session):
    """End-to-end curation: output is a subset of input docs, canonical
    texts are unique post-exact-dedup, near-dup clusters keep exactly
    their min doc_id, every row has a split."""
    import pyarrow.parquet as pq

    from ocr_ray.functions.dedup import minhash_pairs
    from ocr_ray.pipelines.curation import curate_documents

    sf = "/root/testdata/sf0.001"
    out = curate_documents(sf).to_pandas()
    docs = pq.read_table(sf + "/documents.parquet").to_pandas()
    assert set(out["doc_id"]) <= set(docs["doc_id"])
    assert set(out["split"]) <= {"train", "val", "test"}
    kept = docs[docs["doc_id"].isin(set(out["doc_id"]))].copy()
    canon = kept["text"].str.strip().str.split().str.join(" ").str.lower()
    assert canon.is_unique  # exact dedup happened
    # no near-dup pair with BOTH sides kept (the cluster min survives alone)
    import ray.data as rd

    kept_ds = rd.from_pandas(kept[["doc_id", "text"]])
    residual = minhash_pairs(kept_ds, threshold=0.5).to_pandas()
    assert residual.empty


def test_pack_sequences_greedy_invariants(ray_session):
    """Greedy shard-local packing: pack ids dense per shard, every pack's
    token sum <= cap (except single oversized docs), assignment equals a
    sequential replay, stable across partitionings."""
    import ray.data as rd

    from ocr_ray.functions.packing import pack_sequences

    rng = np.random.RandomState(3)
    docs = pd.DataFrame(
        {"doc_id": np.arange(600, dtype=np.int64),
         "text": [" ".join(["w"] * int(n)) for n in rng.randint(1, 700, 600)]}
    )
    out = (
        pack_sequences(rd.from_pandas(docs), cap=512, shard=256)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(out) == 600
    for (s,), g in out.groupby(["shard"]):
        g = g.sort_values("doc_id")
        packs = g["pack"].to_numpy()
        assert packs[0] == 0 and (np.diff(packs) >= 0).all()
        assert set(np.diff(packs)) <= {0, 1}  # dense
        # sequential replay
        acc, pack = 0, -1
        for tok, p in zip(g["n_tokens"], packs):
            if pack < 0 or acc + tok > 512:
                pack += 1
                acc = int(tok)
            else:
                acc += int(tok)
            assert p == pack
        # pack token sums bounded unless a single oversized doc
        sums = g.groupby("pack")["n_tokens"].agg(["sum", "size"])
        over = sums[sums["sum"] > 512]
        assert (over["size"] == 1).all()
    # partition independence
    out2 = (
        pack_sequences(rd.from_pandas(docs).repartition(7), cap=512, shard=256)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out, out2)


def test_decontaminate_drops_overlapping_docs(ray_session):
    import ray.data as rd

    from ocr_ray.functions.dedup import decontaminate

    bench = pd.DataFrame(
        {"doc_id": [1000], "text": ["the secret benchmark answer phrase here"]}
    )
    cand = pd.DataFrame(
        {"doc_id": [1, 2, 3],
         "text": [
             "totally unrelated clean content words flow",
             "contains the secret benchmark answer phrase here verbatim",
             "short",  # < 3 tokens -> no shingles -> clean by contract
         ]}
    )
    out = (
        decontaminate(rd.from_pandas(cand), rd.from_pandas(bench))
        .to_pandas()
        .sort_values("doc_id")
    )
    assert list(out["doc_id"]) == [1, 3]


def test_media_features_query(ray_session):
    from ocr_ray.functions.multimodal import make_media_table, media_pipeline

    import ray.data as rd

    out = media_pipeline(rd.from_arrow(make_media_table(50))).to_pandas()
    assert len(out) == 50 and out["decode_ok"].all()
    assert (out["width"] > 0).all() and (out["mean_value"] > 0).all()


def test_weighted_sample_matches_brute_and_weight_monotone(ray_session):
    import ray.data as rd

    from ocr_ray.functions.sampling import key_hash64, weighted_sample

    n = 2000
    df = pd.DataFrame(
        {"doc_id": np.arange(n, dtype=np.int64),
         # two weight classes: heavy rows 10x the weight of light rows
         "w": np.where(np.arange(n) % 2 == 0, 99, 9).astype(np.int64)}
    )
    k = 200
    got = weighted_sample(rd.from_pandas(df).repartition(7), "doc_id", "w", k)
    # brute-force E-S reference
    h = key_hash64(df["doc_id"])
    u = (h.astype(np.float64) + 1.0) / 2.0**64
    score = np.log(u) / (df["w"].to_numpy() + 1).astype(np.float64)
    order = np.lexsort((df["doc_id"].to_numpy(), -score))[:k]
    want = set(df["doc_id"].to_numpy()[np.sort(order)])
    assert set(got["doc_id"]) == want
    assert len(got) == k
    # partition independence
    got2 = weighted_sample(rd.from_pandas(df).repartition(2), "doc_id", "w", k)
    assert got["doc_id"].tolist() == got2["doc_id"].tolist()
    # 10x-weight rows must dominate the sample (expected ~10:1 odds/row)
    heavy = (got["doc_id"] % 2 == 0).sum()
    assert heavy > 0.75 * k


def test_chunk_documents_matches_brute_and_slices_reconstruct(ray_session):
    import ray.data as rd

    from ocr_ray.functions.packing import CHUNK_STRIDE, CHUNK_TOKENS, chunk_documents

    texts = [
        "a bb ccc",
        "",                                   # zero chunks
        "x",                                  # single short chunk
        " ".join(f"t{i}" for i in range(130)),  # 3 chunks, short tail
        "字 字字 end",                         # multibyte char offsets
        " ".join("w" for _ in range(CHUNK_TOKENS)),  # exactly one window... plus stride tail
    ]
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                       "text": texts})
    got = (
        chunk_documents(rd.from_pandas(df).repartition(4))
        .to_pandas().sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)
    )
    rows = []
    for did, txt in zip(df.doc_id, df.text):
        toks = txt.split(" ") if txt else []
        s, ci = 0, 0
        while s < len(toks):
            if ci and s + CHUNK_TOKENS - CHUNK_STRIDE >= len(toks):
                break  # fully contained in the previous window
            n = min(CHUNK_TOKENS, len(toks) - s)
            start_char = len(" ".join(toks[:s])) + (1 if s else 0)
            chunk = " ".join(toks[s:s + n])
            # char coordinates must slice the original text exactly
            assert txt[start_char:start_char + len(chunk)] == chunk
            rows.append((did, ci, s, n, start_char, len(chunk)))
            s += CHUNK_STRIDE
            ci += 1
    want = pd.DataFrame(rows, columns=["doc_id", "chunk_idx", "start_tok",
                                       "n_tok", "start_char", "n_chars"])
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_temperature_mix_matches_brute(ray_session):
    import math

    import numpy as np
    import pyarrow as pa

    import ray.data as rd

    from ocr_ray.functions.sampling import key_hash64, temperature_mix

    rng = np.random.RandomState(7)
    langs = ["en"] * 400 + ["fr"] * 100 + ["zh"] * 25
    rows = [{"doc_id": i, "lang": g} for i, g in enumerate(langs)]
    ds = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(4)
    out = temperature_mix(ds, "lang", "doc_id", alpha=0.5).to_pandas()
    counts = {"en": 400, "fr": 100, "zh": 25}
    nmin = 25
    kept = set(out["doc_id"])
    for i, g in enumerate(langs):
        th = int(math.floor(1_000_000 * math.sqrt(nmin / counts[g])))
        expect = int(key_hash64([i])[0] % np.uint64(1_000_000)) < th
        assert (i in kept) == expect, (i, g)
    # minority lang kept in full
    assert sum(1 for i, g in enumerate(langs) if g == "zh" and i in kept) == 25
    # alpha=1 keeps everything; alpha=0 equals rebalance_by_group
    all_kept = temperature_mix(ds, "lang", "doc_id", alpha=1.0).to_pandas()
    assert len(all_kept) == len(langs)
    from ocr_ray.functions.sampling import rebalance_by_group

    a0 = temperature_mix(ds, "lang", "doc_id", alpha=0.0).to_pandas()
    rb = rebalance_by_group(ds, "lang", "doc_id").to_pandas()
    assert sorted(a0["doc_id"]) == sorted(rb["doc_id"])
    import pytest

    with pytest.raises(ValueError):
        temperature_mix(ds, "lang", "doc_id", alpha=1.5)


def test_group_rebalancing_on_empty_input(ray_session):
    """rebalance_by_group and temperature_mix keep 0 rows of a 0-row
    input (the group counts come back typed, not as a column-less
    frame)."""
    import pyarrow as pa

    import ray.data as rd

    from ocr_ray.functions.sampling import rebalance_by_group, temperature_mix

    ds = rd.from_arrow(pa.table({"doc_id": pa.array([], pa.int64()),
                                 "lang": pa.array([], pa.string())}))
    assert rebalance_by_group(ds, "lang", "doc_id").count() == 0
    assert temperature_mix(ds, "lang", "doc_id", alpha=0.5).count() == 0


# --- content-defined chunking ----------------------------------------------


def test_cdc_chunks_matches_brute(ray_session):
    import hashlib

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.functions.packing import cdc_chunks

    M = (1 << 61) - 1
    rng = np.random.RandomState(53)
    vocab = [f"t{i}" for i in range(40)]
    rows = [
        {"doc_id": i,
         "text": " ".join(rng.choice(vocab, size=rng.randint(1, 60)))}
        for i in range(80)
    ] + [{"doc_id": 999, "text": "   "}]  # token-less doc -> no chunks

    out = cdc_chunks(
        rd.from_arrow(pa.Table.from_pylist(rows))
    ).to_pandas().sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)

    def h(w):
        return int.from_bytes(
            hashlib.md5(w.encode()).digest()[:8], "little") % M

    exp = []
    for r in rows:
        toks = r["text"].lower().split()
        ci, start = 1, 1
        for i, w in enumerate(toks, 1):
            if h(w) % 16 == 0 or i == len(toks):
                exp.append((r["doc_id"], ci, start, i, i - start + 1))
                ci, start = ci + 1, i + 1
    expdf = pd.DataFrame(
        exp, columns=["doc_id", "chunk_idx", "start_tok", "end_tok",
                      "n_tokens"]
    ).astype("int64")
    pd.testing.assert_frame_equal(out, expdf)
    # coverage invariant: chunk token counts tile each doc exactly
    got_tot = out.groupby("doc_id")["n_tokens"].sum()
    for r in rows:
        n = len(r["text"].split())
        if n:
            assert got_tot[r["doc_id"]] == n


def test_cdc_chunks_edit_locality(ray_session):
    """The CDC property: editing one token changes only the chunk(s)
    containing it — all other (start, end) chunk spans survive."""
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.functions.packing import cdc_chunks

    base = " ".join(f"w{i:04d}" for i in range(200))
    edited = base.replace("w0100", "CHANGED")
    tbl = pa.Table.from_pylist(
        [{"doc_id": 0, "text": base}, {"doc_id": 1, "text": edited}])
    out = cdc_chunks(rd.from_arrow(tbl)).to_pandas()
    a = set(map(tuple, out[out.doc_id == 0][
        ["start_tok", "end_tok"]].to_numpy()))
    b = set(map(tuple, out[out.doc_id == 1][
        ["start_tok", "end_tok"]].to_numpy()))
    # at most the chunks bordering position 101 differ
    assert len(a ^ b) <= 4
    assert len(a & b) >= len(a) - 2

"""Dedup operator tests: planted duplicates, brute-force cross-checks."""

import numpy as np
import pandas as pd
import pytest

from ocr_ray.stages.partial_agg import LOCAL_ROW_LIMITS


def _docs_with_dups():
    import pyarrow as pa

    base = [
        "the quick brown fox jumps over the lazy dog again and again",
        "completely different content about ray data pipelines and arrow",
        "a third document with its own unique words in this tiny corpus",
    ]
    rows = []
    for i, t in enumerate(base):
        rows.append({"doc_id": i, "text": t})
    # exact duplicate of doc 0 (whitespace/case variants too)
    rows.append({"doc_id": 10, "text": base[0]})
    rows.append({"doc_id": 11, "text": "  " + base[0].upper() + "  "})
    # near-duplicate of doc 1 (one word changed)
    rows.append({"doc_id": 12, "text": base[1].replace("arrow", "parquet")})
    return pa.Table.from_pylist(rows)


def test_exact_dedup(ray_session):
    import ray.data as rd

    from ocr_ray.functions.dedup import exact_dedup

    out = exact_dedup(rd.from_arrow(_docs_with_dups())).to_pandas()
    # 4 distinct canonical texts; doc 0's group keeps min id with 3 copies
    assert len(out) == 4
    g = out.set_index("doc_id")["dup_count"]
    assert g[0] == 3 and g[1] == 1 and g[2] == 1 and g[12] == 1


def test_minhash_pairs_finds_near_dups(ray_session):
    import ray.data as rd

    from ocr_ray.functions.dedup import _token_hashes, minhash_pairs

    out = minhash_pairs(rd.from_arrow(_docs_with_dups()), threshold=0.5).to_pandas()
    pairs = set(map(tuple, out[["doc_a", "doc_b"]].to_numpy()))
    assert (0, 10) in pairs  # exact dup -> jaccard 1.0
    assert (1, 12) in pairs  # near dup
    # verified jaccard matches brute force
    for _, r in out.iterrows():
        docs = {row["doc_id"]: row["text"] for row in _docs_with_dups().to_pylist()}
        sa = _token_hashes(docs[r.doc_a])
        sb = _token_hashes(docs[r.doc_b])
        inter = np.intersect1d(sa, sb).size
        brute = inter / (sa.size + sb.size - inter)
        assert r.jaccard == pytest.approx(round(brute, 6))


def test_minhash_pairs_wide_path_matches_broadcast(ray_session, monkeypatch):
    """Force the wide (Dataset cogroup-join + capped-Bloom) verify path by
    zeroing the broadcast gate; output must match the bounded path."""
    import ray.data as rd

    from ocr_ray.functions import dedup

    docs = _docs_with_dups()
    want = dedup.minhash_pairs(rd.from_arrow(docs), threshold=0.5).to_pandas()
    monkeypatch.setattr(dedup, "_BROADCAST_PAIR_LIMIT", 0)
    got = dedup.minhash_pairs(rd.from_arrow(docs), threshold=0.5).to_pandas()

    def key(df):
        return df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)

    pd.testing.assert_frame_equal(
        key(got)[["doc_a", "doc_b", "jaccard"]],
        key(want)[["doc_a", "doc_b", "jaccard"]],
        check_dtype=False,
    )


def test_simhash_pairs(ray_session):
    import ray.data as rd

    from ocr_ray.functions.dedup import simhash_pairs

    out = simhash_pairs(rd.from_arrow(_docs_with_dups()), max_hamming=3).to_pandas()
    pairs = set(map(tuple, out[["doc_a", "doc_b"]].to_numpy()))
    assert (0, 10) in pairs  # identical text -> hamming 0
    ham = out.set_index(["doc_a", "doc_b"])["hamming"]
    assert ham[(0, 10)] == 0


def test_simhash_pairs_brute_force_and_large_bucket(ray_session):
    """The in-bucket verify must be EXACT, including buckets larger than
    the retired 256-member cap (the r5 sf0.1 gate caught that cap
    dropping oracle pairs): 300 identical docs share every band bucket
    and must emit all C(300,2) hamming-0 pairs; a mixed corpus must
    equal the banded brute force pair-for-pair."""
    import pyarrow as pa

    import ray.data as rd

    from ocr_ray.functions.dedup import _simhash, simhash_pairs

    # 300 identical docs -> one 300-member bucket in all 4 bands
    n = 300
    docs = pa.table(
        {"doc_id": pa.array(list(range(n)), pa.int64()),
         "text": pa.array(["the same exact text for everyone"] * n)}
    )
    out = simhash_pairs(rd.from_arrow(docs), max_hamming=3).to_pandas()
    assert len(out) == n * (n - 1) // 2
    assert (out["hamming"] == 0).all()
    assert (out["doc_a"] < out["doc_b"]).all()

    # mixed corpus: exact equality with the banded brute force
    rng = np.random.RandomState(11)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    texts = [
        " ".join(rng.choice(words, size=rng.randint(3, 9)).tolist())
        for _ in range(120)
    ]
    texts += [t + " tail" for t in texts[:20]]  # planted near-dups
    docs2 = pa.table(
        {"doc_id": pa.array(list(range(len(texts))), pa.int64()),
         "text": pa.array(texts)}
    )
    got = (
        simhash_pairs(rd.from_arrow(docs2), max_hamming=3)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    sigs = [_simhash(t) for t in texts]
    exp = []
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            bands = any(
                (sigs[i] >> (16 * b)) & 0xFFFF == (sigs[j] >> (16 * b)) & 0xFFFF
                for b in range(4)
            )
            h = bin(sigs[i] ^ sigs[j]).count("1")
            if bands and h <= 3:
                exp.append((i, j, h))
    assert (
        list(map(tuple, got[["doc_a", "doc_b", "hamming"]].to_numpy()))
        == exp
    )


def test_minhash_pairs_large_identical_cluster(ray_session, monkeypatch):
    """A 300-copy duplicate cluster exceeds the retired 256-member bucket
    cap: every band bucket holds all 300 members and minhash must emit
    all C(300,2) verified pairs at jaccard 1.0 (the oracle's all-pairs
    semantics — same defect class as the simhash sf0.1 incident). The
    broadcast gate is raised so the verify runs driver-side: the cap
    regression lives in CANDIDATE GENERATION, which is shared by both
    verify modes (the distributed mode's large-bucket behavior is
    demonstrated separately in BENCH/SCALE_DEMO_neardedup.json)."""
    import pyarrow as pa

    import ray.data as rd

    from ocr_ray.functions import dedup

    monkeypatch.setattr(dedup, "_BROADCAST_PAIR_LIMIT", 10**9)
    n = 300
    docs = pa.table(
        {"doc_id": pa.array(list(range(n)), pa.int64()),
         "text": pa.array(
             ["one identical document body repeated many times over"] * n
         )}
    )
    out = dedup.minhash_pairs(
        rd.from_arrow(docs).materialize(), threshold=0.5
    )
    if isinstance(out, rd.Dataset):
        out = out.to_pandas()
    assert len(out) == n * (n - 1) // 2
    assert (out["jaccard"] == 1.0).all()
    assert (out["doc_a"] < out["doc_b"]).all()


def test_popcount64_matches_python():
    from ocr_ray.functions.dedup import _popcount64

    rng = np.random.RandomState(3)
    xs = rng.randint(0, 2**63, size=1000, dtype=np.int64).view(np.uint64)
    xs = np.concatenate([xs, np.array([0, 1, 2**64 - 1], dtype=np.uint64)])
    got = _popcount64(xs)
    want = np.array([bin(int(v)).count("1") for v in xs], dtype=np.int64)
    assert (got == want).all()
    # shape preserved on 2-D input (the chunked hamming matrix path)
    m = xs[:16].reshape(4, 4)
    assert (_popcount64(m) == want[:16].reshape(4, 4)).all()


def test_simhash_unique_sig_cap_deterministic(ray_session, monkeypatch):
    """Force the _MAX_UNIQUE_SIGS truncation: with the cap at 1, only
    members of the smallest signature value survive per bucket — the
    result must be deterministic and a subset of the uncapped pairs."""
    import pyarrow as pa

    import ray.data as rd

    from ocr_ray.functions import dedup

    texts = (["identical cluster text"] * 4
             + ["some other words here entirely"] * 3)
    docs = pa.table(
        {"doc_id": pa.array(list(range(len(texts))), pa.int64()),
         "text": pa.array(texts)}
    )
    full = dedup.simhash_pairs(rd.from_arrow(docs), max_hamming=3).to_pandas()
    monkeypatch.setattr(dedup, "_MAX_UNIQUE_SIGS", 1)
    capped = dedup.simhash_pairs(rd.from_arrow(docs), max_hamming=3).to_pandas()
    fp = set(map(tuple, full[["doc_a", "doc_b"]].to_numpy()))
    cp = set(map(tuple, capped[["doc_a", "doc_b"]].to_numpy()))
    assert cp <= fp
    # the kept (smallest-sig) cluster's internal pairs must all survive
    assert len(cp) >= 3  # one 4- or 3-member cluster fully paired
    run2 = dedup.simhash_pairs(rd.from_arrow(docs), max_hamming=3).to_pandas()
    assert sorted(map(tuple, run2[["doc_a", "doc_b"]].to_numpy())) == sorted(cp)


def test_ngram_jaccard_exact_pairs(ray_session):
    """Exact pairwise Jaccard equals itertools brute force (validates the
    triangular pair-index decoding too)."""
    import itertools

    import ray.data as rd

    from ocr_ray.functions.dedup import ngram_jaccard_pairs

    docs = _docs_with_dups()
    out = (
        ngram_jaccard_pairs(rd.from_arrow(docs), threshold=0.1, max_docs=1000)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    texts = {r["doc_id"]: r["text"] for r in docs.to_pylist()}

    def sh(t):
        toks = t.lower().split()
        return {" ".join(toks[i:i + 3]) for i in range(len(toks) - 2)}

    expected = []
    for a, b in itertools.combinations(sorted(texts), 2):
        sa, sb = sh(texts[a]), sh(texts[b])
        if not sa or not sb:
            continue
        inter = len(sa & sb)
        if inter == 0:
            continue
        jac = inter / (len(sa) + len(sb) - inter)
        if jac >= 0.1:
            expected.append((a, b, round(jac, 6)))
    got = list(map(tuple, out.to_numpy()))
    assert [(int(a), int(b), j) for a, b, j in got] == expected


def test_cluster_pairs_union_find():
    import pandas as pd

    from ocr_ray.functions.dedup import cluster_pairs

    pairs = pd.DataFrame({"doc_a": [1, 2, 10, 30], "doc_b": [2, 3, 11, 31]})
    out = cluster_pairs(pairs).set_index("doc_id")["cluster_id"]
    assert out[1] == out[2] == out[3] == 1
    assert out[10] == out[11] == 10
    assert out[30] == out[31] == 30


def test_dedup_keep_list(ray_session):
    import ray.data as rd

    from ocr_ray.functions.dedup import dedup_keep_list

    out = dedup_keep_list(rd.from_arrow(_docs_with_dups()), threshold=0.5)
    keep = out.set_index("doc_id")["keep"]
    # cluster {0,10,11}: keep only 0; cluster {1,12}: keep only 1
    assert keep[0] and not keep[10] and not keep[11]
    assert keep[1] and not keep[12]


def test_dedup_drop_ids_matches_keep_list(ray_session):
    import ray.data as rd

    from ocr_ray.functions.dedup import dedup_drop_ids, dedup_keep_list

    docs = _docs_with_dups()
    kl = dedup_keep_list(rd.from_arrow(docs), threshold=0.5)
    want = sorted(kl.loc[~kl["keep"], "doc_id"].astype(int))
    got = sorted(
        dedup_drop_ids(rd.from_arrow(docs), threshold=0.5)
        .to_pandas()["doc_id"].astype(int)
    )
    assert got == want and got == [10, 11, 12]


def test_training_reader_deterministic(ray_session, tmp_path):
    import os

    import pyarrow.parquet as pq

    from ocr_ray.corpus import turns_table_for_convs
    from ocr_ray.pipelines.extract import training_reader

    d = str(tmp_path / "t")
    os.makedirs(d)
    pq.write_table(turns_table_for_convs(list(range(6))), os.path.join(d, "p.parquet"))

    def first_keys(seed):
        batches = training_reader(d, seed=seed, batch_size=64)
        b = next(iter(batches))
        return list(zip(b.column("conv_id").to_pylist(), b.column("turn_idx").to_pylist()))

    assert first_keys(7) == first_keys(7)  # seeded -> reproducible
    assert first_keys(7) != first_keys(8)  # different seed -> different order


def test_truncate_payloads(ray_session):
    import pyarrow as pa

    import ray.data as rd

    from ocr_ray.pipelines.extract import truncate_payloads

    ds = rd.from_arrow(pa.Table.from_pylist(
        [{"conv_id": "c", "turn_idx": 0, "text": "x" * 100},
         {"conv_id": "c", "turn_idx": 1, "text": "short"}]
    ))
    out = truncate_payloads(ds, 10).to_pandas()
    assert out.text.str.len().tolist() == [10, 5]
    assert out.orig_len.tolist() == [100, 5]


def test_embedding_near_dup_precision(ray_session):
    import pyarrow as pa

    import ray.data as rd

    from ocr_ray.functions.dedup import embedding_near_dup

    rng = np.random.RandomState(0)
    base = rng.standard_normal((20, 16))
    # plant near-dups: vectors 100+i = tiny perturbation of vector i
    rows = []
    for i in range(20):
        rows.append({"vec_id": i, "embedding": base[i].tolist()})
    for i in range(5):
        rows.append({"vec_id": 100 + i, "embedding": (base[i] + 0.01 * rng.standard_normal(16)).tolist()})
    embs = rd.from_arrow(pa.Table.from_pylist(rows))
    out = embedding_near_dup(embs, threshold=0.95).to_pandas()
    pairs = set(map(tuple, out[["vec_a", "vec_b"]].to_numpy()))
    # all planted pairs recovered (they agree in every LSH table at cos~1)
    for i in range(5):
        assert (i, 100 + i) in pairs
    # precision: every reported pair really has cosine >= threshold
    assert (out["cosine"] >= 0.95).all()


def test_embedding_near_dup_row_path_matches_blob(ray_session, monkeypatch):
    """Force the high-dim row path (id-only LSH shuffle + cogroup vector
    fetch) by zeroing the blob gate: same pair set and cosines as the
    blob path on identical input."""
    import pyarrow as pa

    import ray.data as rd

    from ocr_ray.functions import dedup

    rng = np.random.RandomState(1)
    base = rng.standard_normal((30, 16))
    rows = [{"vec_id": i, "embedding": base[i].tolist()} for i in range(30)]
    for i in range(6):
        rows.append(
            {"vec_id": 200 + i,
             "embedding": (base[i] + 0.01 * rng.standard_normal(16)).tolist()}
        )
    embs = pa.Table.from_pylist(rows)
    want = dedup.embedding_near_dup(rd.from_arrow(embs), threshold=0.5).to_pandas()
    monkeypatch.setattr(dedup, "_EMB_BLOB_GATE", 0)
    got = dedup.embedding_near_dup(rd.from_arrow(embs), threshold=0.5).to_pandas()

    def key(df):
        return df.sort_values(["vec_a", "vec_b"]).reset_index(drop=True)

    want, got = key(want), key(got)
    assert want[["vec_a", "vec_b"]].values.tolist() == got[["vec_a", "vec_b"]].values.tolist()
    np.testing.assert_allclose(got["cosine"], want["cosine"], atol=2e-6)


def _dup_spans_brute(df: pd.DataFrame, window: int) -> pd.DataFrame:
    """Nested-loop reference: group windows by CONTENT, union intervals."""
    from collections import Counter, defaultdict

    wins = []  # (doc_id, pos, win)
    for d, s in zip(df["doc_id"], df["text"]):
        toks = s.split(" ")
        for i in range(len(toks) - window + 1):
            wins.append((d, i + 1, " ".join(toks[i:i + window])))
    cnt = Counter(w for _, _, w in wins)
    hits = defaultdict(list)
    for d, p, w in wins:
        if cnt[w] >= 2:
            hits[d].append(p)
    rows = []
    for d, ps in hits.items():
        ps.sort()
        covered = 0
        prev_end = 0  # 1-based inclusive end of union so far
        for p in ps:
            e = p + window - 1
            covered += e - max(prev_end, p - 1)
            prev_end = max(prev_end, e)
        n_tokens = len(
            df.loc[df["doc_id"] == d, "text"].iloc[0].split(" ")
        )
        rows.append({"doc_id": d, "n_tokens": n_tokens,
                     "dup_windows": len(ps), "dup_tokens": covered})
    return (pd.DataFrame(rows, columns=["doc_id", "n_tokens",
                                        "dup_windows", "dup_tokens"])
            .sort_values("doc_id").reset_index(drop=True))


def test_dup_spans_matches_brute_force(ray_session):
    import pyarrow as pa

    import ray.data as rd

    from ocr_ray.functions.dedup import dup_spans

    rng = np.random.RandomState(7)
    vocab = [f"w{i}" for i in range(12)]
    rows = []
    for d in range(40):
        toks = list(rng.choice(vocab, size=rng.randint(4, 30)))
        rows.append({"doc_id": d, "text": " ".join(toks)})
    # planted: doc 100 repeats doc 0's text; doc 101 embeds a 9-token run
    # from doc 1 (covers overlapping-window union) and a too-short 3-run
    rows.append({"doc_id": 100, "text": rows[0]["text"]})
    nine = " ".join(rows[1]["text"].split(" ")[:9])
    rows.append({"doc_id": 101, "text": "x0 x1 " + nine + " x2 x3"})
    # a doc shorter than the window emits no windows at all
    rows.append({"doc_id": 102, "text": "a b c"})
    df = pd.DataFrame(rows)

    window = 5
    got = (dup_spans(rd.from_arrow(pa.Table.from_pandas(df)), window=window)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    want = _dup_spans_brute(df, window)
    pd.testing.assert_frame_equal(
        got.astype("int64"), want.astype("int64")
    )
    # the planted full duplicate is fully covered
    full = got.set_index("doc_id")
    assert full.loc[100, "dup_tokens"] == full.loc[100, "n_tokens"]
    # the 9-token planted run covers 9 tokens of doc 101 (5 windows)
    assert full.loc[101, "dup_tokens"] == 9
    assert full.loc[101, "dup_windows"] == 5
    assert 102 not in full.index


def test_dup_spans_partition_invariant(ray_session):
    import pyarrow as pa

    import ray.data as rd

    from ocr_ray.functions.dedup import dup_spans

    df = pd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                         columns=["doc_id", "text"])
    t = pa.Table.from_pandas(df)
    a = (dup_spans(rd.from_arrow(t)).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    b = (dup_spans(rd.from_arrow(t).repartition(13)).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)
    assert len(a) > 0  # the corpus contains organic duplicates


def test_dup_intervals_brute_force_and_coverage(ray_session):
    import pyarrow as pa

    import ray.data as rd

    from ocr_ray.functions.dedup import dup_intervals, dup_spans

    # doc 1 embeds TWO disjoint 6-token runs from doc 0 with a unique
    # gap between them -> two islands; doc 2 is an exact copy of doc 0
    run_a = "a0 a1 a2 a3 a4 a5"
    run_b = "b0 b1 b2 b3 b4 b5"
    rows = [
        {"doc_id": 0, "text": run_a + " m0 m1 " + run_b},
        {"doc_id": 1, "text": "x0 " + run_a + " gap0 gap1 gap2 " + run_b
                              + " x1"},
        {"doc_id": 2, "text": run_a + " m0 m1 " + run_b},
        {"doc_id": 3, "text": "z0 z1 z2 z3 z4 z5 z6 z7 z8"},
    ]
    df = pd.DataFrame(rows)
    window = 5
    ds = rd.from_arrow(pa.Table.from_pandas(df))
    iv = (dup_intervals(ds, window=window).to_pandas()
          .sort_values(["doc_id", "span_idx"]).reset_index(drop=True))
    # doc 1: two islands (runs separated by a 3-token unique gap)
    d1 = iv[iv["doc_id"] == 1]
    assert len(d1) == 2
    assert list(d1["span_idx"]) == [1, 2]
    # 1-based token positions: run_a occupies tokens 2..7 of doc 1
    assert d1.iloc[0]["start_tok"] == 2 and d1.iloc[0]["end_tok"] == 7
    # docs 0 and 2 (exact copies) are one full-coverage island each
    for d in (0, 2):
        dd = iv[iv["doc_id"] == d]
        assert len(dd) == 1
        assert dd.iloc[0]["start_tok"] == 1 and dd.iloc[0]["end_tok"] == 14
    assert 3 not in set(iv["doc_id"])
    # coverage cross-check: per-doc interval lengths sum == dup_tokens
    sp = dup_spans(ds, window=window).to_pandas().set_index("doc_id")
    lens = (iv["end_tok"] - iv["start_tok"] + 1).groupby(iv["doc_id"]).sum()
    for d, tot in lens.items():
        assert tot == sp.loc[d, "dup_tokens"]


def test_dup_intervals_coverage_on_corpus(ray_session):
    import pyarrow as pa

    import ray.data as rd

    from ocr_ray.functions.dedup import dup_intervals, dup_spans

    df = pd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                         columns=["doc_id", "text"])
    ds = rd.from_arrow(pa.Table.from_pandas(df))
    iv = dup_intervals(ds).to_pandas()
    sp = dup_spans(ds).to_pandas().set_index("doc_id")
    lens = (iv["end_tok"] - iv["start_tok"] + 1).groupby(iv["doc_id"]).sum()
    assert set(lens.index) == set(sp.index)
    for d, tot in lens.items():
        assert tot == sp.loc[d, "dup_tokens"]
    # span_idx is dense 1..n per doc
    g = iv.groupby("doc_id")["span_idx"]
    assert (g.min() == 1).all()
    assert (g.max() == g.count()).all()


# --- sorted-neighborhood (SNM) -------------------------------------------


def _snm_corpus(n=40, seed=7):
    """Seeded corpus with planted sorted-neighbor near-dups: pairs share
    the blocking prefix and ~95% of their token set."""
    import pyarrow as pa

    rng = np.random.RandomState(seed)
    vocab = np.array(
        ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
         "theta", "iota", "kappa", "lam", "mu", "nu", "xi", "omicron"]
    )
    rows = []
    did = 0
    for i in range(n):
        toks = list(rng.choice(vocab, size=rng.randint(12, 30)))
        rows.append({"doc_id": did, "text": " ".join(toks)})
        did += 1
        if i % 4 == 0:  # planted variant: same prefix, one token swapped
            v = list(toks)
            v[-1] = "swapped"
            rows.append({"doc_id": did, "text": " ".join(v)})
            did += 1
    return pa.Table.from_pylist(rows)


def _snm_brute(tbl, window=5, tau=(9, 10)):
    """Independent replay: python re/hashlib, no engine kernels."""
    import hashlib
    import re

    M = 2305843009213693951
    ids = tbl.column("doc_id").to_pylist()
    texts = tbl.column("text").to_pylist()
    key = {
        d: re.sub(r"[^a-z0-9]+", "", t.lower())[:16]
        for d, t in zip(ids, texts)
    }
    toks = {
        d: {
            int.from_bytes(
                hashlib.md5(w.encode()).digest()[:8], "little") % M
            for w in t.lower().split()
        }
        for d, t in zip(ids, texts)
    }
    order = sorted(ids, key=lambda d: (key[d], d))
    out = []
    for i, a in enumerate(order):
        for j in range(i + 1, min(i + window, len(order))):
            b = order[j]
            inter = len(toks[a] & toks[b])
            uni = len(toks[a] | toks[b])
            if tau[1] * inter >= tau[0] * uni:
                out.append((min(a, b), max(a, b), inter, uni))
    out.sort()
    return pd.DataFrame(
        out, columns=["doc_a", "doc_b", "inter", "uni"]
    ).astype("int64")


def test_snm_pairs_matches_brute_force(ray_session):
    import ray.data as rd

    from ocr_ray.functions.dedup import snm_pairs

    tbl = _snm_corpus()
    out = snm_pairs(rd.from_arrow(tbl))
    exp = _snm_brute(tbl)
    assert len(exp) > 0  # planted variants must surface
    pd.testing.assert_frame_equal(out.reset_index(drop=True), exp)


def test_snm_pairs_distributed_matches_local(ray_session, monkeypatch):
    import ray.data as rd

    from ocr_ray.functions.dedup import snm_pairs

    tbl = _snm_corpus(n=60, seed=11)
    ds = rd.from_arrow(tbl)
    loc = snm_pairs(ds)
    monkeypatch.setitem(LOCAL_ROW_LIMITS, "snm", 0)
    dist = snm_pairs(ds)
    pd.testing.assert_frame_equal(
        dist.reset_index(drop=True), loc.reset_index(drop=True)
    )


def test_snm_pairs_distributed_tiny_blocks(ray_session, monkeypatch):
    """Blocks smaller than the window: cross-block pairs span >2 sorted
    blocks, exercising the boundary-set sufficiency argument."""
    import ray.data as rd

    from ocr_ray.functions.dedup import snm_pairs

    tbl = _snm_corpus(n=8, seed=3)  # ~10 docs over 4 blocks
    ds = rd.from_arrow(tbl)
    loc = snm_pairs(ds)
    monkeypatch.setitem(LOCAL_ROW_LIMITS, "snm", 0)
    dist = snm_pairs(ds)
    pd.testing.assert_frame_equal(
        dist.reset_index(drop=True), loc.reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(loc.reset_index(drop=True), _snm_brute(tbl))


def test_snm_window_pairs_edges():
    from ocr_ray.functions.dedup import _snm_window_pairs

    a, b = _snm_window_pairs(np.array([], dtype=np.int64), 5)
    assert a.size == 0 and b.size == 0
    a, b = _snm_window_pairs(np.array([42], dtype=np.int64), 5)
    assert a.size == 0
    # n=3, w=5: all 3 unordered pairs, canonical order
    a, b = _snm_window_pairs(np.array([9, 2, 5], dtype=np.int64), 5)
    got = sorted(zip(a.tolist(), b.tolist()))
    assert got == [(2, 5), (2, 9), (5, 9)]


def test_snm_tokenless_docs_never_pair(ray_session):
    """Two adjacent token-less docs (empty key, empty token sets) must
    NOT emit a pair — the SQL twin's inner joins drop such docs."""
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.functions.dedup import snm_pairs

    tbl = pa.Table.from_pylist([
        {"doc_id": 0, "text": "   "},
        {"doc_id": 1, "text": ""},
        {"doc_id": 2, "text": "real tokens in this one here yes"},
    ])
    out = snm_pairs(rd.from_arrow(tbl))
    assert len(out) == 0

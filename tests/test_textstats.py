"""Text-analysis operator tests (brute-force cross-checks for the
heuristic operators that have no SQL oracle)."""

import numpy as np
import pandas as pd
import pyarrow as pa

from ocr_ray.functions.textstats import (
    LangId,
    collapse_docs_batch,
    fingerprint_batch,
    quality_batch,
    token_stats_batch,
    winnow_batch,
)
from ocr_ray.stages.partial_agg import LOCAL_ROW_LIMITS


def _batch(texts):
    return pa.Table.from_pylist(
        [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    )


def test_token_stats():
    out = token_stats_batch(_batch(["a b  c", "", "single"])).to_pylist()
    assert [r["n_tokens"] for r in out] == [3, 0, 1]
    assert out[0]["n_chars"] == 6
    # BPE-ish: "a"," b"," ","c" -> 4 pieces; "don't" -> "don","'t"
    assert out[0]["n_bpe_tokens"] == 4
    bpe = token_stats_batch(_batch(["don't stop"])).to_pylist()[0]
    assert bpe["n_bpe_tokens"] == 3


def test_quality():
    out = quality_batch(_batch(["the cat and the hat"])).to_pylist()[0]
    assert out["n_tokens"] == 5
    assert out["stop_ratio"] == round(3 / 5, 6)
    assert out["mean_token_len"] == round(15 / 5, 6)


def test_fingerprint_canonicalization():
    out = fingerprint_batch(_batch(["Hello  World", "hello world", "different"])).to_pylist()
    assert out[0]["fp"] == out[1]["fp"]
    assert out[0]["fp"] != out[2]["fp"]


def test_collapse():
    out = collapse_docs_batch(_batch(["a a b b b a", ""])).to_pylist()
    assert out[0]["collapsed"] == "a b a"
    assert out[1]["collapsed"] == ""


def test_winnow_deterministic_and_shape():
    texts = ["one two three four five six seven eight nine ten"] * 2 + ["short text"]
    out = winnow_batch(_batch(texts)).to_pylist()
    assert out[0]["n_grams"] == 6  # 10 tokens, k=5
    assert out[0] == {**out[1], "doc_id": 0}  # identical text -> identical fingerprint
    assert out[2]["n_grams"] == 0  # below k tokens -> empty


def test_langid_profiles():
    lid = LangId()
    assert lid.predict("the cat is in the house and that is that")[0] == "en"
    assert lid.predict("el perro y la casa de los gatos en madrid")[0] == "es"
    assert lid.predict("der hund und die katze ist nicht das problem")[0] == "de"
    assert lid.predict("le chat et les chiens de la maison")[0] == "fr"
    assert lid.predict("这是一个中文句子没有别的")[0] == "zh"
    assert lid.predict("")[0] == "und"
    out = lid(_batch(["the the the", ""])).to_pylist()
    assert out[0]["pred_lang"] == "en" and out[1]["pred_lang"] == "und"


def test_bigram_topk_matches_counter(ray_session):
    """Partial-Counter + bucketed sum + per-bucket cut == direct Counter."""
    import collections

    import pyarrow as pa

    import ray.data as rd

    from ocr_ray.functions.textstats import bigram_topk

    texts = [
        "the quick brown fox the quick brown dog",
        "THE QUICK brown fox runs",
        "one two one two one two",
        "",
        "single",
    ]
    docs = rd.from_arrow(
        pa.Table.from_pydict(
            {"doc_id": list(range(len(texts))), "text": texts}
        )
    ).repartition(3)
    got = bigram_topk(docs, k=4)
    c: collections.Counter = collections.Counter()
    for t in texts:
        toks = t.lower().split()
        c.update(a + " " + b for a, b in zip(toks, toks[1:]))
    want = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:4]
    assert list(map(tuple, got[["bigram", "n"]].to_numpy())) == want


def test_lowest_ids_large_anchored_ids(ray_session):
    """_lowest_ids must not assume ids start near 0: snowflake-style large
    ids resolve in one scan with a bounded driver pull."""
    import pyarrow as pa

    import ray.data as rd

    from ocr_ray.functions.similarity import _lowest_ids

    base = 1 << 40
    rows = [
        {"vec_id": base + i * 997, "embedding": [float(i), 1.0]}
        for i in range(50)
    ]
    ds = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(5)
    head = _lowest_ids(ds, 4)
    assert head["vec_id"].tolist() == [base + i * 997 for i in range(4)]


def test_knn_ivf_recall_vs_brute(ray_session):
    import ray.data as rd

    from ocr_ray.functions.similarity import default_queries, knn_brute, knn_ivf

    embs = rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet",
                           columns=["vec_id", "embedding"])
    qids, qmat = default_queries(embs, n=4)
    brute = knn_brute(embs, qids, qmat, k=10)
    ivf = knn_ivf(embs, qids, qmat, k=10, n_probe=6)
    recalls = []
    for qid in qids:
        b = set(brute[brute.query_id == qid].neighbor_id)
        a = set(ivf[ivf.query_id == qid].neighbor_id)
        recalls.append(len(a & b) / len(b))
    assert np.mean(recalls) >= 0.5  # ANN with 6/16 probes


def test_knn_brute_is_exact(ray_session):
    import ray.data as rd

    from ocr_ray.functions.similarity import default_queries, knn_brute

    embs = rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet",
                           columns=["vec_id", "embedding"])
    qids, qmat = default_queries(embs, n=2)
    out = knn_brute(embs, qids, qmat, k=5)
    # brute-force numpy check
    import pyarrow.parquet as pq

    t = pq.read_table("/root/testdata/sf0.001/embeddings.parquet")
    ids = np.array(t.column("vec_id").to_pylist())
    mat = np.array(t.column("embedding").to_pylist(), dtype=np.float64)
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    for j, qid in enumerate(qids):
        cos = mat @ qmat[j]
        order = np.argsort(-cos, kind="stable")
        expected = [int(ids[i]) for i in order if ids[i] != qid][:5]
        got = out[out.query_id == qid].sort_values(
            ["cosine", "neighbor_id"], ascending=[False, True]
        ).neighbor_id.tolist()
        assert got == expected


def test_redact_batch_matches_re(ray_session):
    import pyarrow as pa
    import re

    from ocr_ray.functions.textstats import REDACT_TOKEN, redact_batch

    texts = ["a table of value and tables", "", "value value table", "no hits here",
             "tablevalue table value"]
    t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    out = redact_batch(t).to_pandas()
    pat = re.compile(r"\b(table|value)\b")
    for i, txt in enumerate(texts):
        red, cnt = pat.subn(REDACT_TOKEN, txt)
        assert out.loc[i, "n_redacted"] == cnt
        assert out.loc[i, "n_chars_after"] == len(red)
    assert out["n_redacted"].sum() > 0


def test_repetition_batch_brute(ray_session):
    import pyarrow as pa

    from ocr_ray.functions.textstats import repetition_batch

    texts = ["a b c a b c a b c",      # 7 trigrams, 3 distinct
             "x y z w",                 # 2 trigrams, distinct
             "one two",                 # < 3 tokens
             ""]
    t = pa.table({"doc_id": [0, 1, 2, 3], "text": texts})
    out = repetition_batch(t).to_pandas()
    assert out["n_trigrams"].tolist() == [7, 2, 0, 0]
    assert abs(out.loc[0, "dup_trigram_ratio"] - round(1 - 3 / 7, 6)) < 1e-9
    assert out.loc[1, "dup_trigram_ratio"] == 0.0
    assert out.loc[2, "dup_trigram_ratio"] == 0.0


def test_events_value_decile_brute(ray_session):
    import os

    import pyarrow.parquet as pq

    from ocr_ray.pipelines.relational import events_value_decile

    sf = "/root/testdata/sf0.001"
    got = events_value_decile(sf)
    ev = pq.read_table(os.path.join(sf, "events.parquet"),
                       columns=["event_id", "value"]).to_pandas()
    ev = ev.sort_values(["value", "event_id"]).reset_index(drop=True)
    n = len(ev)
    ev["decile"] = (np.arange(n) * 10) // n
    exp = ev.sort_values("event_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got, exp[["event_id", "value", "decile"]], check_dtype=False
    )
    # every decile holds n/10 +- 1 rows
    c = got["decile"].value_counts()
    assert c.min() >= n // 10 - 1 and c.max() <= n // 10 + 1


def test_knn_filtered_respects_label_predicate(ray_session):
    """Filtered search returns only in-filter neighbors and equals the
    brute-force answer on the restricted candidate set."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from ocr_ray.functions.similarity import default_queries, knn_brute

    sf = "/root/testdata/sf0.001"
    embs_all = rd.read_parquet(sf + "/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    qids, qmat = default_queries(embs_all, n=3)
    filtered = rd.read_parquet(
        sf + "/embeddings.parquet", columns=["vec_id", "embedding"],
        filter=pads.field("label").isin([0, 1, 2]),
    )
    got = knn_brute(filtered, qids, qmat, k=5)
    labels = pd.read_parquet(sf + "/embeddings.parquet",
                             columns=["vec_id", "label"]).set_index("vec_id")
    assert labels.loc[got["neighbor_id"], "label"].isin([0, 1, 2]).all()
    # brute force on the restricted set: pandas cosine
    df = pd.read_parquet(sf + "/embeddings.parquet")
    cand = df[df.label.isin([0, 1, 2])]
    mat = np.array(cand["embedding"].tolist(), dtype=np.float64)
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    for j, qid in enumerate(qids):
        cos = mat @ qmat[j]
        order = np.lexsort((cand["vec_id"].to_numpy(), -cos))
        want = [v for v in cand["vec_id"].to_numpy()[order] if v != qid][:5]
        assert got[got.query_id == qid]["neighbor_id"].tolist() == want


def test_bigram_nll_matches_brute(ray_session):
    """Distributed add-one bigram LM (counts via bucketed sums + joins)
    == direct Counter replay, including the <2-token doc exclusion."""
    import collections
    import math

    import pyarrow as pa

    import ray.data as rd

    from ocr_ray.functions.textstats import bigram_nll

    texts = [
        "the quick brown fox the quick brown dog",
        "THE QUICK brown fox runs",
        "one two one two one two",
        "",           # no tokens -> no row
        "single",     # one token -> no bigram -> no row
        "the the the",
    ]
    docs = rd.from_arrow(
        pa.Table.from_pydict(
            {"doc_id": list(range(len(texts))), "text": texts}
        )
    ).repartition(3)
    got = (
        bigram_nll(docs)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    toks = {i: t.lower().split() for i, t in enumerate(texts)}
    bgs = {i: list(zip(tl, tl[1:])) for i, tl in toks.items()}
    bc: collections.Counter = collections.Counter()
    cc: collections.Counter = collections.Counter()
    vocab = set()
    for i, tl in toks.items():
        vocab.update(tl)
        for b in bgs[i]:
            bc[b] += 1
            cc[b[0]] += 1
    v = len(vocab)
    want = {
        i: (
            len(bl),
            round(
                sum(
                    math.log2(cc[b[0]] + v) - math.log2(bc[b] + 1.0)
                    for b in bl
                )
                / len(bl),
                4,
            ),
        )
        for i, bl in bgs.items()
        if bl
    }
    assert got["doc_id"].tolist() == sorted(want)
    for _, r in got.iterrows():
        nb, nll = want[r["doc_id"]]
        assert r["n_bigrams"] == nb
        assert abs(r["nll_bits"] - nll) < 1e-9


def test_semdedup_matches_brute(ray_session, monkeypatch):
    """Distributed per-cluster chunked kernel == single-process numpy
    replay — with the chunk width forced below the cluster sizes so the
    chunk-boundary masking is actually exercised. Also checks the kept-set
    invariant: no two kept members of a cluster are >= tau apart."""
    import numpy as np
    import pyarrow as pa

    import ray.data as rd

    import ocr_ray.functions.similarity as S

    monkeypatch.setattr(S, "_SEMDEDUP_CHUNK", 3)

    rng = np.random.RandomState(7)
    n, d = 120, 8
    base = rng.randn(12, d)
    # planted near-dups: jittered copies of 12 anchors
    mat = np.vstack([base[i % 12] + 0.05 * rng.randn(d) for i in range(n)])
    rows = [
        {"vec_id": 1000 + i, "embedding": mat[i].tolist()} for i in range(n)
    ]
    embs = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(5)
    got = (
        S.semdedup(embs, n_clusters=4, tau=0.9, train_sample=64)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )

    # brute replay
    sample = mat[np.argsort([r["vec_id"] for r in rows], kind="stable")][:64]
    cent = S.train_centroids(S._unit(sample.astype(np.float64)), 4, 10)
    u = S._unit(mat.astype(np.float64))
    asg = np.argmax(u @ cent.T, axis=1)
    dup = np.zeros(n, dtype=bool)
    for c in range(4):
        idx = np.where(asg == c)[0]  # vec_id order == index order here
        g = np.round(u[idx] @ u[idx].T, 4)
        for a in range(1, len(idx)):
            dup[idx[a]] = bool((g[:a, a] >= 0.9).any())
    assert got["vec_id"].tolist() == [1000 + i for i in range(n)]
    assert got["cluster"].tolist() == asg.astype(int).tolist()
    assert got["is_dup"].tolist() == dup.astype(int).tolist()
    assert 0 < dup.sum() < n  # non-trivial: some dups, some kept

    # kept-set invariant
    for c in range(4):
        kept = np.where((asg == c) & ~dup)[0]
        if len(kept) > 1:
            g = np.round(u[kept] @ u[kept].T, 4)
            np.fill_diagonal(g, 0.0)
            assert (g < 0.9).all()


def test_bigram_nll_distributed_path_matches_local(ray_session, monkeypatch):
    """Forcing the gate to 0 must give the identical result via the
    full distributed plan (counts-join-counts + one stream shuffle)."""
    import pyarrow as pa

    import ray.data as rd

    import ocr_ray.functions.textstats as T

    texts = ["the quick brown fox the quick", "one two one two",
             "alpha beta gamma alpha beta", "", "solo"]
    docs = rd.from_arrow(pa.Table.from_pydict(
        {"doc_id": list(range(len(texts))), "text": texts})).repartition(3)
    local = T.bigram_nll(docs).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    monkeypatch.setitem(LOCAL_ROW_LIMITS, "nll", 0)
    dist = T.bigram_nll(docs).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    assert dist.equals(local)


def test_semdedup_distributed_path_matches_local(ray_session, monkeypatch):
    """Forcing the vector gate to 0 must give the identical flags via
    the cluster-shuffle plan."""
    import numpy as np
    import pyarrow as pa

    import ray.data as rd

    import ocr_ray.functions.similarity as S

    rng = np.random.RandomState(11)
    mat = np.vstack([rng.randn(8) + 0.02 * rng.randn(8) for _ in range(60)])
    rows = [{"vec_id": 50 + i, "embedding": mat[i].tolist()}
            for i in range(60)]
    embs = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(4)
    local = S.semdedup(embs, n_clusters=3, tau=0.9,
                       train_sample=32).to_pandas().sort_values(
        "vec_id").reset_index(drop=True)
    monkeypatch.setitem(LOCAL_ROW_LIMITS, "semdedup", 0)
    dist = S.semdedup(embs, n_clusters=3, tau=0.9,
                      train_sample=32).to_pandas().sort_values(
        "vec_id").reset_index(drop=True)
    assert dist.equals(local)


def test_token_entropy_matches_brute():
    import collections
    import math

    import pyarrow as pa

    from ocr_ray.functions.textstats import token_entropy_batch

    texts = [
        "a b c a b c a b c",        # skewed counts
        "x",                          # single token: entropy 0
        "",                           # zero tokens: dropped
        "  one   TWO two One  ",      # case-fold + multi-space edges
        "w " * 500 + "z",             # long repeated run
    ]
    t = pa.table({"doc_id": [10, 11, 12, 13, 14], "text": texts})
    out = token_entropy_batch(t).to_pandas().set_index("doc_id")
    assert 12 not in out.index  # zero-token doc dropped (SQL twin parity)
    for did, text in zip([10, 11, 13, 14], [texts[0], texts[1], texts[3], texts[4]]):
        cnt = collections.Counter(text.lower().split())
        n = sum(cnt.values())
        ent = round(
            math.log2(n) - sum(c * math.log2(c) for c in cnt.values()) / n, 4
        )
        assert out.loc[did, "n_tokens"] == n
        assert out.loc[did, "n_distinct"] == len(cnt)
        assert out.loc[did, "entropy_bits"] == ent
    # single-token doc: exactly 0 bits
    assert out.loc[11, "entropy_bits"] == 0.0
    # empty batch passes through typed
    empty = token_entropy_batch(t.slice(0, 0))
    assert empty.num_rows == 0
    assert empty.column_names == ["doc_id", "n_tokens", "n_distinct", "entropy_bits"]
    # all-whitespace batch hits the zero-kept-token branch
    ws = token_entropy_batch(pa.table({"doc_id": [1], "text": ["   "]}))
    assert ws.num_rows == 0


def test_gopher_rules_matches_brute():
    import pyarrow as pa

    from ocr_ray.functions.textstats import STOPWORDS, gopher_rules_batch

    texts = [
        "the a of and to " + "word " * 60,     # passes every rule
        "",                                      # empty: 0-features, drop
        "### ... ...... xx#yy",                  # symbol-heavy
        "the of " + "supercalifragilistic " * 55,  # mean len > 10
        "the of " + "go " * 55,                  # mean len < 3
        "the of " + "ok4 " * 44,                 # word count 46 < 50
    ]
    t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    out = gopher_rules_batch(t).to_pandas().set_index("doc_id")
    for i, text in enumerate(texts):
        ws = [w for w in text.split() if w]
        n = len(ws)
        assert out.loc[i, "n_words"] == n
        if n:
            assert out.loc[i, "mean_word_len"] == round(
                sum(len(w) for w in ws) / n, 6)
            assert out.loc[i, "alpha_ratio"] == round(
                sum(1 for w in ws if any(c.isascii() and c.isalpha() for c in w)) / n, 6)
            assert out.loc[i, "symbol_ratio"] == round(
                (text.count("#") + text.count("...")) / n, 6)
            assert out.loc[i, "n_stop"] == sum(1 for w in ws if w in STOPWORDS)
        else:
            assert out.loc[i, "mean_word_len"] == 0.0
        keep = (
            50 <= n <= 100000
            and 3 <= out.loc[i, "mean_word_len"] <= 10
            and out.loc[i, "symbol_ratio"] <= 0.1
            and out.loc[i, "alpha_ratio"] >= 0.8
            and out.loc[i, "n_stop"] >= 2
        )
        assert bool(out.loc[i, "keep"]) == keep, i
    assert bool(out.loc[0, "keep"]) is True
    assert not out.loc[1:, "keep"].any()


def test_dsir_logratio_matches_brute(ray_session):
    import collections
    import math

    import numpy as np
    import pyarrow as pa

    import ray.data as rd

    from ocr_ray.functions.sampling import key_hash64
    from ocr_ray.functions.textstats import dsir_logratio

    rows = [
        {"doc_id": 0, "text": "alpha beta beta gamma", "lang": "en"},
        {"doc_id": 1, "text": "alpha alpha delta", "lang": "en"},
        {"doc_id": 2, "text": "GAMMA delta delta epsilon", "lang": "fr"},
        {"doc_id": 3, "text": "zeta eta theta beta", "lang": "de"},
        {"doc_id": 4, "text": "", "lang": "en"},          # dropped
        {"doc_id": 5, "text": "   ", "lang": "fr"},        # dropped
    ]
    ds = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(3)
    out = dsir_logratio(ds, target_lang="en").to_pandas().set_index("doc_id")
    assert sorted(out.index) == [0, 1, 2, 3]

    B = 256
    raw = collections.Counter()
    tgt = collections.Counter()
    per_doc = {}
    for r in rows:
        toks = [t for t in r["text"].lower().split() if t]
        if not toks:
            continue
        bs = (key_hash64(toks) % np.uint64(B)).astype(int)
        per_doc[r["doc_id"]] = bs
        raw.update(bs.tolist())
        if r["lang"] == "en":
            tgt.update(bs.tolist())
    tot_raw, tot_tgt = sum(raw.values()), sum(tgt.values())
    for did, bs in per_doc.items():
        score = 0.0
        for b, c in sorted(collections.Counter(bs.tolist()).items()):
            term = math.log2((tgt.get(b, 0) + 1) / (tot_tgt + B)) - math.log2(
                (raw.get(b, 0) + 1) / (tot_raw + B))
            score += c * term
        assert out.loc[did, "n_tokens"] == len(bs)
        assert abs(out.loc[did, "dsir_logratio"] - round(score, 4)) < 2e-4
    # target docs must score above the clearly off-target doc 3
    assert out.loc[0, "dsir_logratio"] > out.loc[3, "dsir_logratio"]


def test_dsir_distributed_path_matches_local(ray_session, monkeypatch):
    import numpy as np
    import pyarrow as pa

    import ray.data as rd

    import ocr_ray.functions.textstats as T

    rng = np.random.RandomState(3)
    words = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
    rows = [
        {"doc_id": i,
         "text": " ".join(rng.choice(words, size=12).tolist()),
         "lang": "en" if i % 3 == 0 else "xx"}
        for i in range(120)
    ]
    ds = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(5)
    local = T.dsir_logratio(ds, "en").to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    monkeypatch.setitem(LOCAL_ROW_LIMITS, "dsir", 0)
    dist = T.dsir_logratio(ds, "en").to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    assert dist.equals(local)


def test_embedding_quantize_matches_brute(ray_session, monkeypatch):
    import numpy as np
    import pyarrow as pa

    import ray.data as rd

    import ocr_ray.functions.similarity as S

    rng = np.random.RandomState(21)
    mat = rng.randn(80, 6).astype(np.float32)
    mat[:, 3] = 2.5  # degenerate dimension -> code 0
    rows = [{"vec_id": i, "embedding": mat[i].tolist()} for i in range(80)]
    ds = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(4)
    out = S.embedding_quantize(ds).to_pandas().sort_values(
        "vec_id").reset_index(drop=True)
    m = mat.astype(np.float64)
    mn, mx = m.min(axis=0), m.max(axis=0)
    r = mx - mn
    r[r == 0] = 1.0
    code = np.clip(np.floor((m - mn) * 254.0 / r), 0, 254).astype(np.int64)
    assert (out["n_dims"].to_numpy() == 6).all()
    assert (out["code_sum"].to_numpy() == code.sum(axis=1)).all()
    assert (out["code_min"].to_numpy() == code.min(axis=1)).all()
    assert (out["code_max"].to_numpy() == code.max(axis=1)).all()
    # every min-attaining / max-attaining element hits the code rails
    assert code.max() == 254 and code.min() == 0
    # forced-distributed path is bit-equal to the local path
    monkeypatch.setitem(LOCAL_ROW_LIMITS, "quantize", 0)
    dist = S.embedding_quantize(ds).to_pandas().sort_values(
        "vec_id").reset_index(drop=True)
    assert dist.equals(out)


# --- PMI collocations ------------------------------------------------------


def test_pmi_collocations_matches_brute(ray_session):
    import collections

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.functions.textstats import pmi_collocations

    rng = np.random.RandomState(17)
    vocab = ["red", "blue", "fish", "ray", "data", "arrow", "block"]
    rows = []
    for i in range(120):
        toks = list(rng.choice(vocab, size=rng.randint(8, 20)))
        if i % 3 == 0:
            toks[2:2] = ["new", "york"]  # planted collocation
        rows.append({"doc_id": i, "text": " ".join(toks)})
    tbl = pa.Table.from_pylist(rows)

    out = pmi_collocations(rd.from_arrow(tbl), min_count=3, k=10)

    # brute replay: Counter over all docs, marginals from the count table
    c = collections.Counter()
    for r in rows:
        t = r["text"].lower().split()
        c.update(zip(t, t[1:]))
    nn = float(sum(c.values()))
    nx = collections.Counter()
    ny = collections.Counter()
    for (a, b), n in c.items():
        nx[a] += n
        ny[b] += n
    exp = []
    for (a, b), n in c.items():
        if n >= 3:
            pmi = round(
                float(np.log2(n) + np.log2(nn)
                      - np.log2(nx[a]) - np.log2(ny[b])), 4)
            exp.append((a, b, n, pmi))
    exp.sort(key=lambda r: (-r[3], r[0], r[1]))
    expdf = pd.DataFrame(
        exp[:10], columns=["w1", "w2", "nxy", "pmi"]
    ).astype({"nxy": "int64"})
    pd.testing.assert_frame_equal(out, expdf)
    # the planted pair must rank first
    assert (out.loc[0, "w1"], out.loc[0, "w2"]) == ("new", "york")


def test_pmi_collocations_distributed_matches_local(ray_session, monkeypatch):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    import ocr_ray.functions.textstats as TS

    rng = np.random.RandomState(23)
    vocab = ["aa", "bb", "cc", "dd", "ee", "ff"]
    rows = [
        {"doc_id": i,
         "text": " ".join(rng.choice(vocab, size=rng.randint(10, 25)))}
        for i in range(200)
    ]
    ds = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(5)
    loc = TS.pmi_collocations(ds, min_count=2, k=15)
    monkeypatch.setitem(LOCAL_ROW_LIMITS, "pmi", 0)
    dist = TS.pmi_collocations(ds, min_count=2, k=15)
    pd.testing.assert_frame_equal(dist, loc)


def test_pmi_collocations_empty_and_below_min(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.functions.textstats import pmi_collocations

    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "text": pa.array([], pa.string())})
    assert len(pmi_collocations(rd.from_arrow(empty))) == 0
    one = pa.table({"doc_id": pa.array([1], pa.int64()),
                    "text": pa.array(["unique words only here"], pa.string())})
    # every bigram count is 1 < min_count=5
    assert len(pmi_collocations(rd.from_arrow(one))) == 0


# --- perplexity buckets ----------------------------------------------------


def test_ntile_of_matches_duckdb():
    import duckdb
    import numpy as np

    from ocr_ray.functions.textstats import _ntile_of

    con = duckdb.connect()
    for n_g in (1, 2, 3, 4, 7, 10, 100):
        for k in (2, 3, 4):
            exp = [
                r[0] for r in con.sql(
                    f"SELECT ntile({k}) OVER (ORDER BY i) FROM range({n_g}) t(i)"
                ).fetchall()
            ]
            got = _ntile_of(np.arange(n_g), n_g, k).tolist()
            assert got == exp, (n_g, k)


def test_ppl_buckets_distributed_matches_local(ray_session, monkeypatch):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    import ocr_ray.functions.textstats as TS

    rng = np.random.RandomState(31)
    vocab = ["kk", "ll", "mm", "nn", "oo", "pp", "qq"]
    rows = []
    for i in range(150):
        rows.append({
            "doc_id": i,
            "text": " ".join(rng.choice(vocab, size=rng.randint(8, 30))),
            "lang": ["en", "de", "fr"][i % 3],
        })
    tbl = pa.Table.from_pylist(rows)
    docs = rd.from_arrow(tbl.select(["doc_id", "text"])).repartition(5)
    langs = rd.from_arrow(tbl.select(["doc_id", "lang"])).repartition(4)
    loc = TS.ppl_buckets(docs, langs)
    monkeypatch.setitem(LOCAL_ROW_LIMITS, "ppl", 0)
    monkeypatch.setitem(LOCAL_ROW_LIMITS, "nll", 0)
    dist = TS.ppl_buckets(docs, langs)
    pd.testing.assert_frame_equal(dist, loc)
    # every lang's buckets are 1..3 with NTILE-balanced sizes
    sizes = loc.groupby(["lang", "ppl_bucket"]).size().groupby("lang")
    assert (sizes.max() - sizes.min() <= 1).all()


# --- TF-IDF keywords -------------------------------------------------------


def test_tfidf_topk_matches_brute(ray_session):
    import collections

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.functions.textstats import tfidf_topk

    rng = np.random.RandomState(41)
    vocab = ["common"] * 0 + ["aa", "bb", "cc", "dd", "ee", "rare1", "rare2"]
    rows = []
    for i in range(60):
        toks = list(rng.choice(vocab[:5], size=rng.randint(6, 15)))
        if i % 7 == 0:
            toks.append("rare1")
        if i % 11 == 0:
            toks.append("rare2")
        rows.append({"doc_id": i, "text": " ".join(toks)})
    tbl = pa.Table.from_pylist(rows)

    out = tfidf_topk(rd.from_arrow(tbl), n=3).to_pandas()
    out = out.sort_values(["doc_id", "rank"]).reset_index(drop=True)

    # brute replay
    tf: dict = {}
    dfc: collections.Counter = collections.Counter()
    for r in rows:
        c = collections.Counter(r["text"].lower().split())
        tf[r["doc_id"]] = c
        dfc.update(c.keys())
    nd = float(len(rows))
    exp_rows = []
    for did in sorted(tf):
        scored = sorted(
            ((tok, n_, dfc[tok],
              round(float(n_ * np.log(nd / dfc[tok])), 4))
             for tok, n_ in tf[did].items()),
            key=lambda r: (-r[3], r[0]),
        )[:3]
        for rk, (tok, n_, df_, sc) in enumerate(scored, 1):
            exp_rows.append((did, tok, n_, df_, sc, rk))
    exp = pd.DataFrame(
        exp_rows,
        columns=["doc_id", "tok", "tf", "df", "score", "rank"],
    ).astype({"doc_id": "int64", "tf": "int64", "df": "int64",
              "rank": "int64"})
    pd.testing.assert_frame_equal(out, exp)


def test_tfidf_topk_distributed_matches_local(ray_session, monkeypatch):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    import ocr_ray.functions.textstats as TS

    rng = np.random.RandomState(47)
    vocab = ["tt", "uu", "vv", "ww", "xx", "yy"]
    rows = [
        {"doc_id": i,
         "text": " ".join(rng.choice(vocab, size=rng.randint(5, 18)))}
        for i in range(180)
    ]
    ds = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(6)
    loc = TS.tfidf_topk(ds, n=3).to_pandas().sort_values(
        ["doc_id", "rank"]).reset_index(drop=True)
    monkeypatch.setitem(LOCAL_ROW_LIMITS, "tfidf", 0)
    dist = TS.tfidf_topk(ds, n=3).to_pandas().sort_values(
        ["doc_id", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(dist, loc)


# --- per-source KL ---------------------------------------------------------


def test_source_kl_matches_brute(ray_session):
    import collections

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.functions.textstats import source_kl

    rng = np.random.RandomState(67)
    vocabs = {"s1": ["aa", "bb", "cc"], "s2": ["bb", "cc", "dd", "ee"]}
    rows = []
    for i in range(120):
        src = "s1" if i % 2 else "s2"
        rows.append({
            "doc_id": i, "source": src,
            "text": " ".join(rng.choice(vocabs[src],
                                        size=rng.randint(5, 20)))})
    out = source_kl(
        rd.from_arrow(pa.Table.from_pylist(rows)).repartition(4))

    st: collections.Counter = collections.Counter()
    for r in rows:
        for w in r["text"].lower().split():
            st[(r["source"], w)] += 1
    ct: collections.Counter = collections.Counter()
    ns: collections.Counter = collections.Counter()
    for (s, w), c in st.items():
        ct[w] += c
        ns[s] += c
    n = float(sum(ns.values()))
    exp = []
    for s in sorted(ns):
        terms = [
            (c / float(ns[s])) * (np.log2(c * n)
                                  - np.log2(ct[w] * float(ns[s])))
            for (s2, w), c in st.items() if s2 == s
        ]
        nd = sum(1 for (s2, _) in st if s2 == s)
        exp.append((s, ns[s], nd, round(float(np.sum(
            np.sort(np.asarray(terms)))), 4)))
    # engine sums in its own order; compare at the emitted grid with a
    # one-ulp tolerance on the grid boundary
    got = out.set_index("source")
    for s, n_tok, nd, kl in exp:
        assert got.loc[s, "n_tokens"] == n_tok
        assert got.loc[s, "n_distinct"] == nd
        assert abs(got.loc[s, "kl_bits"] - kl) <= 1e-4
    # distribution drift must be positive for disjoint-ish vocabs
    assert (out["kl_bits"] > 0).all()

"""Every gated operator on a 0-row input read from Parquet, on both
branches of its gate: at its default LOCAL_ROW_LIMITS entry the
driver-local kernel gets a typed 0-row table, and with the entry forced
to 0 the distributed plan runs; each must return the operator's empty
answer."""

import logging

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ocr_ray.stages.partial_agg import LOCAL_ROW_LIMITS

_TABLES = {
    "documents": pa.schema([("doc_id", pa.int64()), ("text", pa.string()),
                            ("lang", pa.string())]),
    "embeddings": pa.schema([("vec_id", pa.int64()),
                             ("embedding", pa.list_(pa.float32()))]),
    "edges": pa.schema([("lo", pa.int64()), ("hi", pa.int64())]),
    "spans": pa.schema([("conv_id", pa.string()), ("turn_idx", pa.int32()),
                        ("span_idx", pa.int32()), ("start", pa.int64()),
                        ("end", pa.int64()), ("text", pa.string()),
                        ("score", pa.float64())]),
}


def _run(op, read):
    from ocr_ray.functions import bpe, dedup, similarity, textstats
    from ocr_ray.pipelines import graph
    from ocr_ray.pipelines.extract import reconcile_sorted

    docs = read("documents", ["doc_id", "text"])
    if op == "triangles":
        return graph.triangle_count_edges(read("edges").materialize())
    if op == "bfs":
        return graph.bfs_hops(read("edges"), seed=0)
    if op == "label_propagation":
        return graph.label_propagation(read("edges"))
    if op == "semdedup":
        return similarity.semdedup(read("embeddings"))
    if op == "quantize":
        return similarity.embedding_quantize(read("embeddings"))
    if op == "pca":
        return similarity.pca_project(read("embeddings"))
    if op == "nll":
        return textstats.bigram_nll(docs)
    if op == "dsir":
        return textstats.dsir_logratio(read("documents"))
    if op == "pmi":
        return textstats.pmi_collocations(docs)
    if op == "ppl":
        return textstats.ppl_buckets(docs, read("documents", ["doc_id", "lang"]))
    if op == "tfidf":
        return textstats.tfidf_topk(docs)
    if op == "snm":
        return dedup.snm_pairs(docs)
    if op == "bpe":
        return bpe.bpe_merges(docs)
    if op == "reconcile":
        return reconcile_sorted(read("spans"))
    raise KeyError(op)


# op -> (expected columns, expected rows as tuples)
_EMPTY = {
    "triangles": (["n_triangles"], [(0,)]),
    "bfs": (["node", "dist"], [(0, 0)]),
    "label_propagation": (["node", "community"], []),
    "semdedup": (["vec_id", "cluster", "is_dup"], []),
    "quantize": (["vec_id", "n_dims", "code_sum", "code_min", "code_max"], []),
    "pca": (["vec_id", "pc0", "pc1", "pc2", "pc3"], []),
    "nll": (["doc_id", "n_bigrams", "nll_bits"], []),
    "dsir": (["doc_id", "n_tokens", "dsir_logratio"], []),
    "pmi": (["w1", "w2", "nxy", "pmi"], []),
    "ppl": (["doc_id", "lang", "n_bigrams", "nll_bits", "ppl_bucket"], []),
    "tfidf": (["doc_id", "tok", "tf", "df", "score", "rank"], []),
    "snm": (["doc_a", "doc_b", "inter", "uni"], []),
    "bpe": (["rank", "left", "right", "n"], []),
    "reconcile": (["conv_id", "turn_idx", "span_idx", "start", "end", "text",
                   "score", "span_seq"], []),
}


@pytest.fixture(scope="module")
def empty_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("empty_tables")
    for name, schema in _TABLES.items():
        pq.write_table(schema.empty_table(), d / f"{name}.parquet")
    return d


# (op, forced limit): None keeps the default entry (local branch), 0
# forces the distributed branch
_BRANCHES = [
    pytest.param(op, limit, id=op if limit is None else f"{op}-distributed")
    for op in sorted(_EMPTY) for limit in (None, 0)
]


@pytest.mark.parametrize("op,limit", _BRANCHES)
def test_gated_op_empty_input(ray_session, empty_dir, caplog, monkeypatch,
                              op, limit):
    import ray.data as rd

    from ocr_ray.pqread import read_parquet

    assert set(_EMPTY) == set(LOCAL_ROW_LIMITS)
    if limit is not None:
        monkeypatch.setitem(LOCAL_ROW_LIMITS, op, limit)

    def read(name, columns=None):
        return read_parquet(str(empty_dir / f"{name}.parquet"), columns=columns)

    with caplog.at_level(logging.DEBUG, logger="ocr_ray.gates"):
        out = _run(op, read)
    # the decision record (op, n, limit, path)
    path = "local" if limit is None else "distributed"
    assert (op, 0, LOCAL_ROW_LIMITS[op], path) in [
        r.args for r in caplog.records if r.name == "ocr_ray.gates"]
    cols, rows = _EMPTY[op]
    if isinstance(out, rd.Dataset):
        # Ray's to_pandas() of a 0-row Dataset drops its columns
        assert out.schema().names == cols
        out = out.to_pandas()
    else:
        assert list(out.columns) == cols
    assert [tuple(r) for r in out.itertuples(index=False)] == rows


def test_distributed_nll_without_bigrams(ray_session, monkeypatch):
    """Documents but no bigram: the distributed plan's bigram stream is
    empty, so its joins get sides without rows and no schema."""
    import ray.data as rd

    from ocr_ray.functions.textstats import bigram_nll

    monkeypatch.setitem(LOCAL_ROW_LIMITS, "nll", 0)
    docs = rd.from_arrow(pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                                   "text": ["one", "two", ""]}))
    out = bigram_nll(docs)
    assert out.schema().names == _EMPTY["nll"][0]
    assert out.count() == 0

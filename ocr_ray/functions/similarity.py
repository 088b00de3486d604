"""Similarity search over the ``embeddings`` table (vec_id, embedding:
list<float>, label).

- ``knn_brute``: exact cosine top-k. The query matrix is broadcast once via
  ray.put; every batch computes a (batch x n_query) matmul and emits only
  its per-batch top-k candidates (partial top-k combiner), so the final
  reduce sees n_blocks*k rows, not the corpus. This is the scale path for
  "small query set x huge corpus".
- ``knn_ivf``: IVF-style bucketed ANN — seeded k-means-lite centroids
  (fixed iterations on a deterministic sample), per-vector nearest-centroid
  assignment, search restricted to the ``n_probe`` closest buckets.
  Verified against knn_brute recall in pytest.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

from ..stages.partial_agg import local_table, pin_empty, to_pandas_typed
from .dedup import _COS_DECIMALS

__all__ = ["default_queries", "knn_brute", "knn_ivf", "kmeans_assign",
           "train_centroids", "semdedup", "embedding_quantize",
           "embedding_covariance", "pca_project"]

_SEED = 42

# the (vec_id, embedding) projection the gated embedding operators pull
# driver-local below their LOCAL_ROW_LIMITS entry
_EMB = pa.schema([("vec_id", pa.int64()),
                  ("embedding", pa.list_(pa.float32()))])


def _to_matrix(batch: pa.Table) -> np.ndarray:
    col = batch.column("embedding")
    flat = np.asarray(col.combine_chunks().flatten(), dtype=np.float64)
    n = len(col)
    return flat.reshape(n, -1)


def _unit(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


def _lowest_ids(embs: rd.Dataset, n: int) -> pd.DataFrame:
    """The n lowest-vec_id rows WITHOUT a global sort: per-block partial
    top-n (each block emits only its n smallest rows), merged and cut on
    the driver. ONE streaming scan, <= n rows per block on the driver, and
    no assumption about the id space — anchored-at-0, snowflake-style
    large, or sparse ids all behave identically (the former
    threshold-widening filter scan re-scanned the corpus up to ~20x and
    could pull far more than n rows when ids clustered high)."""
    import pyarrow.compute as pc

    def partial(batch: pa.Table, k=n) -> pa.Table:
        idx = pc.select_k_unstable(batch, k, [("vec_id", "ascending")])
        return batch.take(idx)

    head = to_pandas_typed(embs.map_batches(partial, batch_format="pyarrow"),
                           {"vec_id": "int64", "embedding": "object"})
    return head.sort_values("vec_id", kind="mergesort").head(n).reset_index(drop=True)


def default_queries(embs: rd.Dataset, n: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic query set: the n lowest vec_ids (query_ids, unit rows)."""
    head = _lowest_ids(embs, n)
    ids = head["vec_id"].to_numpy()
    mat = _unit(np.array(head["embedding"].tolist(), dtype=np.float64))
    return ids, mat


def knn_brute(
    embs: rd.Dataset,
    query_ids: np.ndarray,
    query_mat: np.ndarray,
    k: int = 10,
) -> pd.DataFrame:
    """Exact cosine top-k neighbors for each query vector.

    Returns (query_id, neighbor_id, cosine) with cosine rounded to 4 dp
    (matching the SQL twins — coarse enough that the ~1e-9
    float-association gap between DuckDB's list_cosine_similarity and
    the engine's BLAS dot cannot flip the last emitted digit; ranking
    still uses full precision on both sides);
    self-matches excluded; ties broken by neighbor_id (deterministic).
    """
    qref = ray.put((query_ids, query_mat.T))  # ship once, read per task

    def partial_topk(batch: pa.Table) -> pa.Table:
        qids, qt = ray.get(qref)
        ids = np.asarray(batch.column("vec_id"), dtype=np.int64)
        mat = _unit(_to_matrix(batch))
        cos = mat @ qt  # (batch, n_query)
        rows_q, rows_n, rows_c = [], [], []
        kk = min(k + 1, cos.shape[0])
        for j, qid in enumerate(qids):
            # rank on the QUANTIZED cosine (ties -> neighbor_id at the
            # driver fold), mirroring the SQL twin's ORDER BY round(cs,
            # _COS_DECIMALS): full-precision ranking would let a <1e-9
            # float-association gap between BLAS and DuckDB flip top-k
            # MEMBERSHIP at the rank-k boundary even though both emitted
            # values round identically
            cj = np.round(cos[:, j], _COS_DECIMALS)
            if cj.size > kk:
                # widen the cut to ALL rows tied with the kk-th cosine so the
                # driver merge (which breaks ties by neighbor_id asc) never
                # loses the lower-id neighbor the oracle keeps to an
                # arbitrary argpartition boundary
                part = np.argpartition(-cj, kk - 1)
                top = np.nonzero(cj >= cj[part[kk - 1]])[0]
            else:
                top = np.arange(cj.size)
            for i in top:
                if ids[i] == qid:
                    continue
                rows_q.append(qid)
                rows_n.append(ids[i])
                rows_c.append(cj[i])
        return pa.Table.from_arrays(
            [
                pa.array(rows_q, pa.int64()),
                pa.array(rows_n, pa.int64()),
                pa.array(np.asarray(rows_c, dtype=np.float64)),
            ],
            names=["query_id", "neighbor_id", "cosine"],
        )

    partials = embs.map_batches(partial_topk, batch_format="pyarrow").to_pandas()
    out = []
    for qid, g in partials.groupby("query_id"):
        g = g.sort_values(["cosine", "neighbor_id"], ascending=[False, True], kind="mergesort")
        out.append(g.head(k))
    res = pd.concat(out, ignore_index=True) if out else partials
    res["cosine"] = np.round(res["cosine"], _COS_DECIMALS)
    return res


def train_centroids(train: np.ndarray, n_centroids: int, iters: int = 10) -> np.ndarray:
    """Seeded k-means-lite training: deterministic init (seeded choice over
    the given unit-row sample), fixed Lloyd iterations on spherical means.
    Shared by kmeans_assign, knn_ivf, AND the knn_ivf SQL oracle builder —
    the oracle embeds the returned matrix as repr-round-tripped literals,
    so parity is automatic."""
    rng = np.random.RandomState(_SEED)
    cent = train[
        rng.choice(len(train), size=min(n_centroids, len(train)), replace=False)
    ].copy()
    for _ in range(iters):
        assign = np.argmax(train @ cent.T, axis=1)
        for c in range(cent.shape[0]):
            m = assign == c
            if m.any():
                v = train[m].mean(axis=0)
                nv = np.linalg.norm(v)
                if nv > 0:
                    cent[c] = v / nv
    return cent


def kmeans_assign(
    embs: rd.Dataset,
    n_centroids: int = 10,
    train_sample: int = 2048,
    iters: int = 10,
) -> rd.Dataset:
    """Seeded k-means-lite clustering: fixed Lloyd iterations on a
    deterministic sample (lowest vec_ids), then one broadcast + matmul
    assignment pass over the corpus. Emits (vec_id, cluster)."""
    sample = _lowest_ids(embs, train_sample)
    train = _unit(np.array(sample["embedding"].tolist(), dtype=np.float64))
    cent = train_centroids(train, n_centroids, iters)
    import ray

    cref = ray.put(cent)

    def assign_batch(batch: pa.Table) -> pa.Table:
        c = ray.get(cref)
        mat = _unit(_to_matrix(batch))
        a = np.argmax(mat @ c.T, axis=1).astype(np.int32)
        return pa.Table.from_arrays(
            [batch.column("vec_id"), pa.array(a)], names=["vec_id", "cluster"]
        )

    return embs.map_batches(assign_batch, batch_format="pyarrow")


def knn_ivf(
    embs: rd.Dataset,
    query_ids: np.ndarray,
    query_mat: np.ndarray,
    k: int = 10,
    n_centroids: int = 16,
    n_probe: int = 4,
    train_sample: int = 2048,
) -> pd.DataFrame:
    """IVF-bucketed approximate top-k: k-means-lite (10 fixed Lloyd
    iterations, seeded init on the lowest-vec_id sample) -> assign ->
    probe the n_probe nearest buckets only.

    Scale path: the centroid table is tiny and broadcast; assignment is one
    matmul per batch; only probed buckets' vectors are scanned per query.
    """
    sample = _lowest_ids(embs, train_sample)
    train = _unit(np.array(sample["embedding"].tolist(), dtype=np.float64))
    cent = train_centroids(train, n_centroids, 10)
    cref = ray.put(cent)

    def assign_batch(batch: pa.Table) -> pa.Table:
        c = ray.get(cref)
        mat = _unit(_to_matrix(batch))
        a = np.argmax(mat @ c.T, axis=1).astype(np.int32)
        return pa.Table.from_arrays(
            [batch.column("vec_id"), pa.array(a), pa.array(list(mat), pa.list_(pa.float64()))],
            names=["vec_id", "bucket", "unit"],
        )

    assigned = embs.map_batches(assign_batch, batch_format="pyarrow")

    # probe set per query
    probes = {
        int(qid): set(np.argsort(-(query_mat[j] @ cent.T))[:n_probe].tolist())
        for j, qid in enumerate(query_ids)
    }
    pref = ray.put((query_ids, query_mat.T, probes))

    def probe_topk(batch: pa.Table) -> pa.Table:
        qids, qt, probes_ = ray.get(pref)
        ids = np.asarray(batch.column("vec_id"), dtype=np.int64)
        buckets = np.asarray(batch.column("bucket"), dtype=np.int32)
        col = batch.column("unit")
        flat = np.asarray(col.combine_chunks().flatten(), dtype=np.float64)
        mat = flat.reshape(len(col), -1)
        rows_q, rows_n, rows_c = [], [], []
        for j, qid in enumerate(qids):
            mask = np.isin(buckets, list(probes_[int(qid)]))
            if not mask.any():
                continue
            # quantized ranking — same contract as knn_brute's partial cut
            cj = np.round(mat[mask] @ qt[:, j], _COS_DECIMALS)
            sub_ids = ids[mask]
            kk = min(k + 1, cj.size)
            if cj.size > kk:
                part = np.argpartition(-cj, kk - 1)
                top = np.nonzero(cj >= cj[part[kk - 1]])[0]  # include cut ties
            else:
                top = np.arange(cj.size)
            for i in top:
                if sub_ids[i] == qid:
                    continue
                rows_q.append(qid)
                rows_n.append(sub_ids[i])
                rows_c.append(cj[i])
        return pa.Table.from_arrays(
            [
                pa.array(rows_q, pa.int64()),
                pa.array(rows_n, pa.int64()),
                pa.array(np.asarray(rows_c, dtype=np.float64)),
            ],
            names=["query_id", "neighbor_id", "cosine"],
        )

    partials = assigned.map_batches(probe_topk, batch_format="pyarrow").to_pandas()
    out = []
    for qid, g in partials.groupby("query_id"):
        g = g.sort_values(["cosine", "neighbor_id"], ascending=[False, True], kind="mergesort")
        out.append(g.head(k))
    res = pd.concat(out, ignore_index=True) if out else partials
    res["cosine"] = np.round(res["cosine"], _COS_DECIMALS)
    return res


def embedding_dim_stats(ds: rd.Dataset) -> "pd.DataFrame":  # noqa: F821
    """Per-dimension min / max / count over the embedding column — the
    UNNEST-with-ordinality (list-explode) aggregate shape, computed
    WITHOUT exploding: each block folds to one (dim, min, max, n) partial
    via a columnwise reduction over the zero-copy (n, d) matrix view, and
    the driver combines O(blocks * d) partial rows. Min/max are
    order-free, so the partial/final split is exact on float32 inputs."""
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.Table.from_pydict(
                {"dim": pa.array([], pa.int64()),
                 "vmin": pa.array([], pa.float64()),
                 "vmax": pa.array([], pa.float64()),
                 "n": pa.array([], pa.int64())}
            )
        mat = _to_matrix(batch)
        d = mat.shape[1]
        return pa.Table.from_pydict(
            {"dim": np.arange(d, dtype=np.int64),
             "vmin": mat.min(axis=0),
             "vmax": mat.max(axis=0),
             "n": np.full(d, mat.shape[0], dtype=np.int64)}
        )

    part = to_pandas_typed(
        ds.map_batches(partial, batch_format="pyarrow"),
        {"dim": "int64", "vmin": "float64", "vmax": "float64", "n": "int64"})
    out = part.groupby("dim", as_index=False).agg(
        vmin=("vmin", "min"), vmax=("vmax", "max"), n=("n", "sum")
    )
    out["n"] = out["n"].astype(np.int64)
    return out.sort_values("dim").reset_index(drop=True)


# --- SemDeDup-style semantic deduplication ---------------------------------

# within-cluster near-duplicate threshold on the 4-dp-quantized cosine
# (same grid as dedup._COS_DECIMALS everywhere a cosine crosses the
# engine/oracle boundary)
SEMDEDUP_TAU = 0.35

# column-chunk width of the per-cluster pairwise pass: peak memory is
# O(cluster_size * _SEMDEDUP_CHUNK * 8B) instead of O(cluster_size^2)
_SEMDEDUP_CHUNK = 1024

_SEMDEDUP_OUT = pa.schema([("vec_id", pa.int64()), ("cluster", pa.int64()),
                           ("is_dup", pa.int64())])


def _dup_flags(mat: np.ndarray, tau: float) -> np.ndarray:
    """Chunked lower-id near-dup flags over one cluster's unit rows
    (ascending-vec_id order) — shared by the distributed group kernel
    and the below-gate local path."""
    n = len(mat)
    dup = np.zeros(n, dtype=bool)
    chunk = _SEMDEDUP_CHUNK
    for i0 in range(1, n, chunk):
        i1 = min(i0 + chunk, n)
        # candidates i0..i1 against ALL lower-index rows 0..i1-1;
        # row j may refute column i only when j < i (strict lower id)
        g = np.round(mat[:i1] @ mat[i0:i1].T, _COS_DECIMALS)
        lower = np.arange(i1)[:, None] < np.arange(i0, i1)[None, :]
        dup[i0:i1] = ((g >= tau) & lower).any(axis=0)
    return dup


def semdedup(
    embs: rd.Dataset,
    n_clusters: int = 16,
    tau: float = SEMDEDUP_TAU,
    train_sample: int = 2048,
) -> rd.Dataset:
    """SemDeDup-style semantic deduplication (Abbas et al. 2023,
    arXiv:2303.09540): cluster the embedding space with seeded
    k-means-lite, then inside each cluster mark a vector as a duplicate
    iff some LOWER-vec_id member of the same cluster has
    round(cosine, 4) >= ``tau``. The kept set (is_dup = 0) is therefore
    pairwise-below-threshold: if u < v were both kept and cos(u,v) >= tau,
    v would have been marked. Emits (vec_id, cluster, is_dup) for every
    input vector.

    Determinism / oracle parity: centroids come from
    ``train_centroids`` (seeded init over the lowest-vec_id sample,
    fixed Lloyd rounds), the same matrix the SQL twin embeds as
    repr-round-tripped literals; assignment is argmax-dot with
    ties -> smallest cluster index (np.argmax == the SQL
    row_number ORDER BY d DESC, c); the dup test quantizes the cosine at
    4 dp on BOTH sides so the ~1e-9 float-association gap between the
    BLAS dot and SQL's SUM cannot flip a comparison.

    Scale shape: the centroid matrix is tiny and broadcast (ray.put);
    assignment is one matmul per batch; the quadratic dup test runs
    per-cluster via groupby(cluster).map_groups. Per-task work is
    O(c^2 * d) for a cluster of size c — that bound is the POINT of
    SemDeDup (the paper sizes k so c stays ~1e5 at web scale; here
    ``n_clusters`` is the knob and must grow with the corpus). The
    kernel is chunked so peak memory is O(c * chunk * 8B), not O(c^2).
    """
    full = local_table(embs, "semdedup", _EMB)
    if full is not None:
        # driver-local fast path: the same lowest-vec_id training sample,
        # one assignment matmul + the same per-cluster chunked kernel,
        # skipping the cluster shuffle
        if not full.num_rows:
            return rd.from_arrow(_SEMDEDUP_OUT.empty_table())
        ids = np.asarray(full.column("vec_id"), dtype=np.int64)
        order = np.argsort(ids, kind="stable")
        mat = _unit(_to_matrix(full))[order]
        ids = ids[order]
        cent = train_centroids(mat[:train_sample], n_clusters, 10)
        asg = np.argmax(mat @ cent.T, axis=1).astype(np.int64)
        dup = np.zeros(len(ids), dtype=bool)
        for c in np.unique(asg):
            idx = np.where(asg == c)[0]  # ascending == vec_id order
            dup[idx] = _dup_flags(mat[idx], tau)
        out = pa.table({"vec_id": ids, "cluster": asg,
                        "is_dup": dup.astype(np.int64)})
        return rd.from_arrow(out)

    sample = _lowest_ids(embs, train_sample)
    if not len(sample):
        return rd.from_arrow(_SEMDEDUP_OUT.empty_table())
    train = _unit(np.array(sample["embedding"].tolist(), dtype=np.float64))
    cref = ray.put(train_centroids(train, n_clusters, 10))

    def assign_batch(batch: pa.Table) -> pa.Table:
        # the ORIGINAL embedding column passes through zero-copy — the
        # group kernel re-derives the float64 unit matrix from the same
        # float32 input, bit-identically, so no 8-byte unit lists (and no
        # per-row Python list objects) ever ride the cluster shuffle
        c = ray.get(cref)
        mat = _unit(_to_matrix(batch))
        a = np.argmax(mat @ c.T, axis=1).astype(np.int64)
        return pa.Table.from_arrays(
            [batch.column("vec_id"), pa.array(a), batch.column("embedding")],
            names=["vec_id", "cluster", "embedding"],
        )

    assigned = embs.map_batches(assign_batch, batch_format="pyarrow")

    def cluster_dups(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "vec_id" not in t.column_names:
            return _SEMDEDUP_OUT.empty_table()
        ids = np.asarray(t.column("vec_id"), dtype=np.int64)
        order = np.argsort(ids, kind="stable")
        mat = _unit(_to_matrix(t))[order]
        dup = _dup_flags(mat, tau)
        return pa.Table.from_pydict(
            {"vec_id": ids[order],
             "cluster": np.asarray(t.column("cluster"),
                                   dtype=np.int64)[order],
             "is_dup": dup.astype(np.int64)}
        )

    from .dedup import _ensure_cols

    return assigned.groupby("cluster").map_groups(
        cluster_dups, batch_format="pyarrow"
    ).map_batches(
        _ensure_cols({"vec_id": "int64", "cluster": "int64", "is_dup": "int64"}),
        batch_format="pandas",
    )


_QUANT_LEVELS = 254  # codes 0..254 (int8-representable with a null spare)
_QUANT_OUT = pa.schema([(c, pa.int64()) for c in
                        ("vec_id", "n_dims", "code_sum", "code_min",
                         "code_max")])


def embedding_quantize(ds: rd.Dataset) -> rd.Dataset:
    """Linear int8-style quantization of the embedding column — the
    standard 4x memory/bandwidth cut for vector corpora at scale (the
    compressed codes, not the float32 vectors, ride shuffles and ANN
    scans; cf. IVF+scalar-quantization in Faiss). Per-dimension code:

        code = floor((v - min_d) * 254 / (max_d - min_d))   in [0, 254]

    with degenerate dimensions (max == min) coded 0. Emits a compact
    per-vector proof instead of 64 exploded rows: (vec_id, n_dims,
    code_sum, code_min, code_max) — any code error almost surely moves
    code_sum, and the summaries are EXACT integers.

    EXACT oracle, no float-association envelope anywhere: min/max are
    exact selections of float32 values (not sums), every quantization
    step is one correctly-rounded IEEE op applied in the identical
    order on both sides (float32->double cast, subtract, multiply,
    divide, floor, clip), and the summaries are integer aggregates.

    Scale shape: pass 1 is :func:`embedding_dim_stats` (per-block
    columnwise (dim, min, max) partials, O(blocks*d) driver merge —
    bounded); pass 2 broadcasts the two 64-double vectors in the task
    closure and encodes each block with one vectorized matrix pass.
    Below its ``LOCAL_ROW_LIMITS`` entry both passes run driver-local on
    one table through the identical kernels (bit-equal results).
    """
    def enc_of(mn: np.ndarray, rng: np.ndarray):
        def enc(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return _QUANT_OUT.empty_table()
            mat = _to_matrix(batch)
            code = np.clip(
                np.floor((mat - mn) * float(_QUANT_LEVELS) / rng),
                0, _QUANT_LEVELS,
            ).astype(np.int64)
            return pa.Table.from_pydict(
                {"vec_id": batch.column("vec_id"),
                 "n_dims": np.full(mat.shape[0], mat.shape[1], np.int64),
                 "code_sum": code.sum(axis=1),
                 "code_min": code.min(axis=1),
                 "code_max": code.max(axis=1)})

        return enc

    def stats_to_rng(stats):
        mn = stats["vmin"].to_numpy(dtype=np.float64)
        mx = stats["vmax"].to_numpy(dtype=np.float64)
        rng = mx - mn
        degen = rng == 0.0
        rng[degen] = 1.0  # (v - mn) is 0 on degenerate dims -> code 0
        return mn, rng

    full = local_table(ds, "quantize", _EMB)
    if full is not None:
        if not full.num_rows:
            return rd.from_arrow(_QUANT_OUT.empty_table())
        mat = _to_matrix(full)
        mn = mat.min(axis=0)
        mx = mat.max(axis=0)
        rng = mx - mn
        rng[rng == 0.0] = 1.0
        return rd.from_arrow(enc_of(mn, rng)(full))

    mn, rng = stats_to_rng(embedding_dim_stats(ds))
    return pin_empty(ds.map_batches(enc_of(mn, rng), batch_format="pyarrow"),
                     _QUANT_OUT)


# --- distributed PCA (covariance + projection) -----------------------------
# The embedding-pipeline preprocessing primitive (whitening / dimensionality
# reduction before IVF or semantic dedup): sample covariance of the
# embedding matrix by mergeable per-block moment partials, eigendecomposed
# on the driver (d x d is tiny), projection broadcast back as a closure.

def _cov_moment_rows(batch: pa.Table) -> pa.Table:
    """One block's second-moment partial as SUMMABLE rows: (dim_i, dim_j,
    v) holds sum(x_i * x_j) for i <= j (the Gram upper triangle, ONE
    numpy matmul), dim_j = -1 rows hold sum(x_i), and the (-1, -1) row
    holds the row count. Rows from different blocks merge by grouped sum
    — the sketch partial/merge shape, O(d^2) rows per block regardless
    of block height."""
    if batch.num_rows == 0:
        return pa.table({
            "dim_i": pa.array([], pa.int64()),
            "dim_j": pa.array([], pa.int64()),
            "v": pa.array([], pa.float64()),
        })
    mat = _to_matrix(batch)
    d = mat.shape[1]
    g = mat.T @ mat
    iu, ju = np.triu_indices(d)
    s = mat.sum(axis=0)
    dim_i = np.concatenate([iu, np.arange(d), [-1]]).astype(np.int64)
    dim_j = np.concatenate([ju, np.full(d, -1), [-1]]).astype(np.int64)
    v = np.concatenate([g[iu, ju], s, [float(mat.shape[0])]])
    return pa.table({"dim_i": dim_i, "dim_j": dim_j, "v": v})


def _cov_from_moments(mom: "pd.DataFrame"):
    """(n, mean, sample covariance) from summed moment rows."""
    import pandas as pd  # noqa: F401

    n = int(round(float(
        mom.loc[(mom["dim_i"] == -1) & (mom["dim_j"] == -1), "v"].iloc[0]
    )))
    srows = mom[(mom["dim_i"] >= 0) & (mom["dim_j"] == -1)].sort_values("dim_i")
    s = srows["v"].to_numpy(np.float64)
    d = s.size
    grows = mom[mom["dim_j"] >= 0]
    g = np.zeros((d, d), dtype=np.float64)
    gi = grows["dim_i"].to_numpy(np.int64)
    gj = grows["dim_j"].to_numpy(np.int64)
    g[gi, gj] = grows["v"].to_numpy(np.float64)
    g[gj, gi] = g[gi, gj]
    if n < 2:
        return n, (s / max(n, 1)), np.zeros((d, d))
    c = (g - np.outer(s, s) / n) / (n - 1)
    return n, s / n, c


def _pca_moments(ds: rd.Dataset) -> "pd.DataFrame":
    """Summed moment rows for the dataset: driver-local single partial
    below its ``LOCAL_ROW_LIMITS`` entry, per-block partials + ONE
    bucketed grouped sum above it (never a driver structure beyond
    O(d^2) rows either way)."""
    from ..stages.partial_agg import grouped_agg

    full = local_table(ds, "pca", pa.schema([_EMB.field("embedding")]))
    if full is not None:
        return _cov_moment_rows(full).to_pandas()
    summed = grouped_agg(
        ds.map_batches(_cov_moment_rows, batch_format="pyarrow"),
        keys=["dim_i", "dim_j"], sum_cols=["v"],
    )
    return to_pandas_typed(
        summed, {"dim_i": "int64", "dim_j": "int64", "v": "float64"}
    )[["dim_i", "dim_j", "v"]]


def embedding_covariance(ds: rd.Dataset) -> "pd.DataFrame":
    """Sample covariance of the embedding matrix as (dim_i, dim_j, cov)
    upper-triangle rows, 4-dp quantized at the emit boundary (sums of
    ~n float64 products; association noise ~1e-11 against the oracle's
    covar_samp stream — five orders under the grid). The SQL twin is the
    dims-cross-join covar_samp aggregate."""
    import pandas as pd

    mom = _pca_moments(ds)
    if not len(mom[(mom["dim_i"] == -1)]):
        return pd.DataFrame({
            "dim_i": pd.Series([], dtype="int64"),
            "dim_j": pd.Series([], dtype="int64"),
            "cov": pd.Series([], dtype="float64"),
        })
    _, _, c = _cov_from_moments(mom)
    iu, ju = np.triu_indices(c.shape[0])
    return pd.DataFrame({
        "dim_i": iu.astype(np.int64),
        "dim_j": ju.astype(np.int64),
        "cov": np.round(c[iu, ju], 4),
    })


def pca_project(ds: rd.Dataset, k: int = 4) -> rd.Dataset:
    """Project embeddings onto the top-k principal components:
    (vec_id, pc0..pc{k-1}). One moment pass (shared with
    embedding_covariance), a d x d eigh on the driver, then a map-only
    centered matmul per block with the (mean, components) pair shipped
    in the task closure (d*k floats — never a shuffle). Component signs
    are canonicalized (largest-|loading| entry positive) so output is
    deterministic up to float noise."""
    mom = _pca_moments(ds)
    if not len(mom[(mom["dim_i"] == -1)]):
        return rd.from_arrow(pa.table(
            {"vec_id": pa.array([], pa.int64()),
             **{f"pc{j}": pa.array([], pa.float64()) for j in range(k)}}
        ))
    n, mean, c = _cov_from_moments(mom)
    d = c.shape[0]
    k = min(k, d)
    w, vecs = np.linalg.eigh(c)
    order = np.argsort(w)[::-1][:k]
    comp = vecs[:, order]
    for j in range(comp.shape[1]):
        i_max = int(np.argmax(np.abs(comp[:, j])))
        if comp[i_max, j] < 0:
            comp[:, j] = -comp[:, j]

    names = [f"pc{j}" for j in range(k)]

    def project(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {"vec_id": pa.array([], pa.int64()),
                 **{nm: pa.array([], pa.float64()) for nm in names}}
            )
        mat = _to_matrix(batch)
        proj = (mat - mean) @ comp
        return pa.table(
            {"vec_id": batch.column("vec_id"),
             **{nm: proj[:, j] for j, nm in enumerate(names)}}
        )

    return ds.map_batches(project, batch_format="pyarrow")

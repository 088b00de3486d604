"""Distributed PCA: moment-partial covariance + projection parity."""

import numpy as np
import pandas as pd
import pyarrow as pa

from ocr_ray.stages.partial_agg import LOCAL_ROW_LIMITS


def _emb_table(n=300, d=8, seed=5):
    rng = np.random.RandomState(seed)
    # anisotropic cloud so the top components are well-separated
    basis = rng.randn(d, d)
    mat = (rng.randn(n, d) * np.linspace(3.0, 0.3, d)) @ basis
    return pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array(
            [row.astype(np.float32) for row in mat],
            pa.list_(pa.float32()),
        ),
    })


def test_embedding_covariance_matches_numpy(ray_session):
    import ray.data as rd

    from ocr_ray.functions.similarity import _to_matrix, embedding_covariance

    tbl = _emb_table()
    out = embedding_covariance(rd.from_arrow(tbl))
    mat = _to_matrix(tbl)
    c = np.cov(mat, rowvar=False, ddof=1)
    iu, ju = np.triu_indices(mat.shape[1])
    exp = pd.DataFrame({
        "dim_i": iu.astype(np.int64),
        "dim_j": ju.astype(np.int64),
        "cov": np.round(c[iu, ju], 4),
    })
    pd.testing.assert_frame_equal(out, exp)


def test_covariance_distributed_partials_match_local(ray_session, monkeypatch):
    import ray.data as rd

    import ocr_ray.functions.similarity as S

    tbl = _emb_table(n=500, d=6, seed=9)
    ds = rd.from_arrow(tbl).repartition(7)
    loc = S.embedding_covariance(ds)
    monkeypatch.setitem(LOCAL_ROW_LIMITS, "pca", 0)  # the grouped-sum path
    dist = S.embedding_covariance(ds)
    # both quantize at 4 dp; partial-order association noise is ~1e-11
    pd.testing.assert_frame_equal(dist, loc)


def test_pca_project_matches_numpy_replay(ray_session):
    import ray.data as rd

    from ocr_ray.functions.similarity import _to_matrix, pca_project

    tbl = _emb_table(n=400, d=8, seed=13)
    k = 3
    out = pca_project(rd.from_arrow(tbl), k=k).to_pandas()
    out = out.sort_values("vec_id").reset_index(drop=True)
    assert list(out.columns) == ["vec_id", "pc0", "pc1", "pc2"]

    mat = _to_matrix(tbl)
    c = np.cov(mat, rowvar=False, ddof=1)
    w, v = np.linalg.eigh(c)
    order = np.argsort(w)[::-1][:k]
    comp = v[:, order]
    for j in range(k):
        im = int(np.argmax(np.abs(comp[:, j])))
        if comp[im, j] < 0:
            comp[:, j] = -comp[:, j]
    exp = (mat - mat.mean(axis=0)) @ comp
    np.testing.assert_allclose(
        out[["pc0", "pc1", "pc2"]].to_numpy(), exp, atol=1e-8
    )
    # variance along pc0 must dominate pc1, pc1 dominate pc2
    var = out[["pc0", "pc1", "pc2"]].var().to_numpy()
    assert var[0] > var[1] > var[2]


def test_pca_empty_input(ray_session):
    import ray.data as rd

    from ocr_ray.functions.similarity import embedding_covariance, pca_project

    empty = pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32())),
    })
    assert len(embedding_covariance(rd.from_arrow(empty))) == 0
    assert pca_project(rd.from_arrow(empty), k=2).count() == 0

"""End-to-end corpus curation — the north-star training-data DAG composed
from the engine's own operators, each stage the scale shape it would keep
at 100 TB:

    read documents (pruned)
      -> quality gate              (vectorized features, fixed thresholds)
      -> exact dedup               (canonical-text groupby, keep min doc_id;
                                    keeper set joined back Dataset-side)
      -> near-dup anti-join        (MinHash-LSH pairs -> connected
                                    components -> drop set stays a Dataset,
                                    removed by adaptive semi/anti join)
      -> train/val/test split      (deterministic hash assignment)

Every stage is individually SQL-verified elsewhere; the composed pipeline
carries its own end-to-end DuckDB twin (``docs_curated``), so the whole
DAG — not just its pieces — is driver-checkable.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..pqread import read_parquet as _read_parquet
from ray.data.aggregate import Min

__all__ = ["curate_documents"]


def curate_documents(sf_dir: str, threshold: float = 0.5) -> rd.Dataset:
    """Returns the curated corpus manifest as a STREAMING Dataset of
    (doc_id, split) — at 100 TB the manifest is itself corpus-sized, so it
    must flow to a sink, never to the driver."""
    from ..functions.dedup import add_content_hash, dedup_drop_ids
    from ..functions.sampling import stratified_split
    from ..functions.textstats import quality_batch
    from .joins import bucket_hash_join, semi_anti_join

    docs = _read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )

    # 1. quality gate — features computed per batch, rows filtered in place
    #    (text kept: downstream dedup needs it)
    def gate(t: pa.Table) -> pa.Table:
        q = quality_batch(t)
        mask = pc.and_(
            pc.and_(
                pc.greater_equal(q["n_tokens"], 10),
                pc.less_equal(q["stop_ratio"], 0.5),
            ),
            pc.greater_equal(q["mean_token_len"], 2.0),
        )
        return t.filter(mask)

    survivors = docs.map_batches(gate, batch_format="pyarrow")

    # 2. exact dedup: min doc_id per canonical text; keeper ids joined back
    #    Dataset-side (no driver key set)
    hashed = survivors.map_batches(add_content_hash, batch_format="pyarrow")
    # materialized: the join's schema probe would re-run the grouped min
    keepers = (
        hashed.groupby("content_hash")
        .aggregate(Min("doc_id", alias_name="doc_id"))
        .select_columns(["doc_id"])
        .materialize()
    )
    exact_survivors = bucket_hash_join(
        survivors, keepers, on="doc_id", n_buckets=32
    ).materialize()

    # 3. near-dup drop list (MinHash-LSH -> components -> drop non-min of
    #    each cluster). The drop set STAYS a Dataset and is removed with an
    #    adaptive anti-join: at web scale cluster membership is
    #    corpus-sized (majority-duplicate corpora), so no driver DataFrame
    #    or broadcast array may be proportional to it — semi_anti_join
    #    broadcasts only below its key gate, else cogroup-joins.
    drops = dedup_drop_ids(exact_survivors, threshold=threshold)
    final = semi_anti_join(
        exact_survivors.select_columns(["doc_id"]), drops, on="doc_id", anti=True
    )

    # 4. deterministic split assignment — stays a Dataset (stream to sink)
    return stratified_split(final, "doc_id")

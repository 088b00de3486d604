"""Command-line entry point — the surface a `ray job submit` deployment
drives (north rule: `ray job submit` on fixed-size clusters):

    python -m ocr_ray.cli extract --input <turns_dir> --output <dir> [--resume]
    python -m ocr_ray.cli metrics --input <turns_dir>
    python -m ocr_ray.cli gen-corpus --sf sf0.01

On a cluster: `ray job submit --working-dir . -- python -m ocr_ray.cli
extract ...` — the module only calls ray.init when no session exists
(the job driver usually owns it).
"""

from __future__ import annotations

import argparse
import json
import sys


def _ensure_ray() -> None:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def cmd_extract(args: argparse.Namespace) -> int:
    _ensure_ray()
    if args.resume:
        from .state.lineage import CheckpointedExtraction

        results = CheckpointedExtraction(args.input, args.output).execute()
        print(json.dumps({"mode": "resume", "partitions": results}, default=str))
        return 0
    from .pipelines.extract import run_extraction

    run_extraction(args.input, args.output)
    print(json.dumps({"mode": "direct", "output": args.output}))
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    _ensure_ray()
    from .pipelines.extract import extract_metrics_totals, read_turns

    # one streaming pass of the extractor's counter form, folded here
    totals = extract_metrics_totals(read_turns(args.input))
    print(json.dumps({k: int(v) for k, v in sorted(totals.items())}))
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    """Deterministic hash sample of a parquet table to a parquet sink."""
    _ensure_ray()
    import ray.data as rd

    from .pqread import read_parquet as _read_parquet

    from .functions.sampling import hash_sample

    ds = _read_parquet(args.input)
    hash_sample(ds, args.key, pct=args.pct).write_parquet(args.output)
    print(json.dumps({"input": args.input, "output": args.output, "pct": args.pct}))
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    """Deterministic train/val/test assignment, hive-partitioned by split."""
    _ensure_ray()
    import ray.data as rd

    from .pqread import read_parquet as _read_parquet

    from .functions.sampling import stratified_split

    ds = _read_parquet(args.input, columns=[args.key])
    stratified_split(ds, args.key).write_parquet(
        args.output, partition_cols=["split"]
    )
    print(json.dumps({"input": args.input, "output": args.output}))
    return 0


def cmd_curate(args: argparse.Namespace) -> int:
    """Full curation DAG (quality gate -> exact dedup -> near-dup
    anti-join -> split) streamed to a hive-partitioned manifest sink —
    the corpus-scale production consumer (the manifest itself is
    corpus-sized at 100 TB, so it flows to parquet, never the driver)."""
    _ensure_ray()
    from .pipelines.curation import curate_documents

    ds = curate_documents(args.input, threshold=args.threshold)
    ds.write_parquet(args.output, partition_cols=["split"])
    print(json.dumps({"input": args.input, "output": args.output,
                      "threshold": args.threshold}))
    return 0


def cmd_chunk(args: argparse.Namespace) -> int:
    """Overlapping token-window chunking to a parquet coordinate sink
    (integer offsets only — consumers slice source text zero-copy)."""
    _ensure_ray()
    import ray.data as rd

    from .pqread import read_parquet as _read_parquet

    from .functions.packing import chunk_documents

    ds = _read_parquet(args.input, columns=["doc_id", "text"])
    chunk_documents(ds, size=args.size, stride=args.stride).write_parquet(
        args.output
    )
    print(json.dumps({"input": args.input, "output": args.output,
                      "size": args.size, "stride": args.stride}))
    return 0


def cmd_bm25(args: argparse.Namespace) -> int:
    """Exact BM25 top-k retrieval for a probe query over a documents
    parquet table; prints one JSON line with the ranked hits."""
    _ensure_ray()
    import ray.data as rd

    from .pqread import read_parquet as _read_parquet

    from .functions.retrieval import bm25_topk

    ds = _read_parquet(args.input, columns=["doc_id", "text"])
    out = bm25_topk(ds, args.terms, k=args.k)
    print(json.dumps({"query": args.terms,
                      "hits": out.to_dict(orient="records")}))
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    """Build the inverted index (term -> df, total tf, ascending posting
    string) over a documents parquet table and write it as partitioned
    parquet — the sharded-index layout."""
    _ensure_ray()
    import ray.data as rd

    from .pqread import read_parquet as _read_parquet

    from .functions.retrieval import inverted_index

    ds = _read_parquet(args.input, columns=["doc_id", "text"])
    idx = inverted_index(ds, min_df=args.min_df)
    idx.write_parquet(args.output)
    print(json.dumps({"input": args.input, "output": args.output,
                      "min_df": args.min_df}))
    return 0


def cmd_compact(args: argparse.Namespace) -> int:
    """Compact a fragmented parquet directory into ~target-row files."""
    _ensure_ray()
    from .sources.compact import compact_parquet

    info = compact_parquet(args.input, args.output, args.target_rows)
    print(json.dumps(info))
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    """Metadata-only table statistics (parquet footers, no data scan)."""
    from .pipelines.relational import catalog_stats

    print(catalog_stats(args.sf_dir).to_json(orient="records"))
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    """Referential-integrity audit over the declared FK edges."""
    _ensure_ray()
    from .pipelines.relational import fk_integrity_audit

    df = fk_integrity_audit(args.sf_dir)
    print(df.to_json(orient="records"))
    return 1 if int(df["n_orphans"].sum()) else 0


def cmd_gen_corpus(args: argparse.Namespace) -> int:
    _ensure_ray()
    from .corpus import ensure_transcripts

    path = ensure_transcripts(f"/root/testdata/{args.sf}")
    print(json.dumps({"corpus": path}))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="ocr_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    pe = sub.add_parser("extract", help="run the extraction pipeline")
    pe.add_argument("--input", required=True, help="turns parquet file/dir")
    pe.add_argument("--output", required=True,
                    help="output directory; without --resume it must hold "
                         "no parquet file yet and gets the span parquet "
                         "files (one file below the reconcile limit)")
    pe.add_argument("--resume", action="store_true",
                    help="checkpointed per-partition run (skip completed)")
    pe.set_defaults(fn=cmd_extract)

    pm = sub.add_parser("metrics", help="drop/dead-letter counter rollup")
    pm.add_argument("--input", required=True)
    pm.set_defaults(fn=cmd_metrics)

    pg = sub.add_parser("gen-corpus", help="generate the synthetic corpus")
    pg.add_argument("--sf", default="sf0.001")
    pg.set_defaults(fn=cmd_gen_corpus)

    ps = sub.add_parser("sample", help="deterministic hash sample")
    ps.add_argument("--input", required=True)
    ps.add_argument("--output", required=True)
    ps.add_argument("--key", default="doc_id")
    ps.add_argument("--pct", type=int, default=10)
    ps.set_defaults(fn=cmd_sample)

    pc_ = sub.add_parser("curate", help="quality->dedup->near-dup->split DAG")
    pc_.add_argument("--input", required=True,
                     help="dir containing documents.parquet")
    pc_.add_argument("--output", required=True)
    pc_.add_argument("--threshold", type=float, default=0.5,
                     help="near-dup Jaccard threshold")
    pc_.set_defaults(fn=cmd_curate)

    pp = sub.add_parser("split", help="deterministic train/val/test split")
    pp.add_argument("--input", required=True)
    pp.add_argument("--output", required=True)
    pp.add_argument("--key", default="doc_id")
    pp.set_defaults(fn=cmd_split)

    pk = sub.add_parser("chunk", help="overlapping token-window chunking")
    pk.add_argument("--input", required=True)
    pk.add_argument("--output", required=True)
    pk.add_argument("--size", type=int, default=64)
    pk.add_argument("--stride", type=int, default=48)
    pk.set_defaults(fn=cmd_chunk)

    pi = sub.add_parser("index", help="build an inverted index")
    pi.add_argument("--input", required=True)
    pi.add_argument("--output", required=True)
    pi.add_argument("--min-df", type=int, default=3, dest="min_df")
    pi.set_defaults(fn=cmd_index)

    pct = sub.add_parser("catalog", help="metadata-only table stats")
    pct.add_argument("--sf-dir", required=True, dest="sf_dir")
    pct.set_defaults(fn=cmd_catalog)

    pau = sub.add_parser("audit", help="FK referential-integrity audit")
    pau.add_argument("--sf-dir", required=True, dest="sf_dir")
    pau.set_defaults(fn=cmd_audit)

    pcx = sub.add_parser("compact", help="compact small parquet files")
    pcx.add_argument("--input", required=True)
    pcx.add_argument("--output", required=True)
    pcx.add_argument("--target-rows", type=int, default=1_000_000,
                     dest="target_rows")
    pcx.set_defaults(fn=cmd_compact)

    pb = sub.add_parser("bm25", help="exact BM25 top-k retrieval")
    pb.add_argument("--input", required=True)
    pb.add_argument("--k", type=int, default=10)
    pb.add_argument("terms", nargs="+", help="probe query terms")
    pb.set_defaults(fn=cmd_bm25)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

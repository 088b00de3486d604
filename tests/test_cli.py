"""CLI surface, CSV sink, and role-filtered read tests."""

import json
import os

import pyarrow.parquet as pq

from ocr_ray.corpus import turns_table_for_convs


def _write_turns(tmp_path) -> str:
    d = str(tmp_path / "turns")
    os.makedirs(d, exist_ok=True)
    pq.write_table(turns_table_for_convs(list(range(8))), os.path.join(d, "t.parquet"))
    return d


def test_cli_extract_and_metrics(ray_session, tmp_path, capsys):
    from ocr_ray.cli import main

    turns = _write_turns(tmp_path)
    out = str(tmp_path / "out")
    assert main(["extract", "--input", turns, "--output", out]) == 0
    rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rec["mode"] == "direct"
    assert any(f.endswith(".parquet") for f in os.listdir(out))

    assert main(["metrics", "--input", turns]) == 0
    m = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert m["turns_in"] > 0 and m["spans_out"] > 0


def test_cli_resume(ray_session, tmp_path, capsys):
    from ocr_ray.cli import main

    turns = _write_turns(tmp_path)
    out = str(tmp_path / "ckpt")
    assert main(["extract", "--input", turns, "--output", out, "--resume"]) == 0
    assert main(["extract", "--input", turns, "--output", out, "--resume"]) == 0
    rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert all(p.get("skipped") for p in rec["partitions"])


def test_cli_curate(ray_session, tmp_path, capsys):
    """curate subcommand: full DAG to a hive-partitioned manifest sink."""
    import duckdb

    from ocr_ray.cli import main

    sf = "/root/testdata/sf0.001"
    out = str(tmp_path / "curated")
    assert main(["curate", "--input", sf, "--output", out]) == 0
    rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rec["threshold"] == 0.5
    splits = sorted(d for d in os.listdir(out) if d.startswith("split="))
    assert splits and set(splits) <= {"split=test", "split=train", "split=val"}
    n = duckdb.sql(
        f"SELECT count(*), count(DISTINCT doc_id) FROM read_parquet('{out}/*/*.parquet')"
    ).fetchone()
    assert n[0] == n[1] > 0  # one manifest row per surviving doc


def test_csv_sink(ray_session, tmp_path):
    import ray.data as rd

    from ocr_ray.pipelines.extract import extract_spans

    turns = _write_turns(tmp_path)
    out = str(tmp_path / "csv")
    extract_spans(
        rd.read_parquet(turns, columns=["conv_id", "turn_idx", "text"])
    ).write_csv(out)
    files = [f for f in os.listdir(out) if f.endswith(".csv")]
    assert files
    header = open(os.path.join(out, files[0])).readline().strip()
    assert [c.strip('"') for c in header.split(",")[:3]] == [
        "conv_id", "turn_idx", "span_idx",
    ]


def test_csv_and_json_sources_roundtrip(ray_session, tmp_path):
    """Extraction over csv / json-lines turn sources equals the parquet
    path (multi-line payloads included)."""
    import ray.data as rd

    from ocr_ray.pipelines.extract import extract_spans, read_turns_any

    turns = _write_turns(tmp_path)

    def spans_of(ds):
        return (
            extract_spans(ds.select_columns(["conv_id", "turn_idx", "text"]))
            .to_pandas()
            .sort_values(["conv_id", "turn_idx", "span_idx"])
            .reset_index(drop=True)
        )

    base = spans_of(rd.read_parquet(turns))

    csv_dir = str(tmp_path / "csv_src")
    rd.read_parquet(turns).drop_columns(["ts"]).write_csv(csv_dir)
    from_csv = spans_of(read_turns_any(csv_dir, "csv"))

    json_dir = str(tmp_path / "json_src")
    rd.read_parquet(turns).drop_columns(["ts"]).write_json(json_dir)
    from_json = spans_of(read_turns_any(json_dir, "json"))

    import pandas as pd

    pd.testing.assert_frame_equal(base, from_csv)
    pd.testing.assert_frame_equal(base, from_json)


def test_role_filtered_read(ray_session, tmp_path):
    from ocr_ray.pipelines.extract import read_turns

    turns = _write_turns(tmp_path)
    ds = read_turns(turns, roles=["assistant"])
    roles = set(ds.unique("role"))
    assert roles == {"assistant"}


def test_cli_chunk_and_bm25(ray_session, tmp_path, capsys):
    import json

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from ocr_ray.cli import main

    docs = pa.Table.from_pylist(
        [{"doc_id": 0, "text": "alpha beta gamma " * 30 + "end"},
         {"doc_id": 1, "text": "alpha"},
         {"doc_id": 2, "text": ""}]
    )
    src = str(tmp_path / "docs.parquet")
    pq_.write_table(docs, src)

    out = str(tmp_path / "chunks")
    assert main(["chunk", "--input", src, "--output", out,
                 "--size", "16", "--stride", "8"]) == 0
    chunks = pd.read_parquet(out)
    assert (chunks.groupby("doc_id").size() > 0).all()
    assert set(chunks.columns) == {"doc_id", "chunk_idx", "start_tok",
                                   "n_tok", "start_char", "n_chars"}
    capsys.readouterr()

    assert main(["bm25", "--input", src, "--k", "2", "alpha", "end"]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["query"] == ["alpha", "end"]
    assert [h["doc_id"] for h in payload["hits"]][0] in (0, 1)
    assert len(payload["hits"]) == 2


def test_cli_index(ray_session, tmp_path, capsys):
    import json

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from ocr_ray.cli import main

    docs = pa.Table.from_pylist(
        [{"doc_id": 0, "text": "alpha beta alpha"},
         {"doc_id": 1, "text": "alpha beta"},
         {"doc_id": 2, "text": "beta"},
         {"doc_id": 3, "text": "gamma"}]
    )
    src = str(tmp_path / "docs.parquet")
    pq_.write_table(docs, src)

    out = str(tmp_path / "index")
    assert main(["index", "--input", src, "--output", out,
                 "--min-df", "2"]) == 0
    idx = pd.read_parquet(out).sort_values("term").reset_index(drop=True)
    # gamma (df=1) cut by min_df; alpha tf counts duplicates
    assert idx["term"].tolist() == ["alpha", "beta"]
    assert idx.loc[0, "df"] == 2 and idx.loc[0, "total_tf"] == 3
    assert idx.loc[0, "postings"] == "0,1"
    assert idx.loc[1, "postings"] == "0,1,2"
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["min_df"] == 2


def test_compact_parquet(ray_session, tmp_path):
    """Compaction preserves every row/value and collapses the file count."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ocr_ray.sources.compact import compact_parquet

    rng = np.random.default_rng(9)
    df = pd.DataFrame(
        {"k": np.arange(5000, dtype=np.int64),
         "v": rng.normal(size=5000),
         "s": [f"s{i % 97}" for i in range(5000)]}
    )
    src = str(tmp_path / "frag")
    # fragmented write: many small files
    rd.from_pandas(df).repartition(40).write_parquet(src)
    import os
    assert len([f for f in os.listdir(src) if f.endswith(".parquet")]) >= 20

    dst = str(tmp_path / "compact")
    info = compact_parquet(src, dst, target_rows=2000)
    assert info["rows"] == 5000
    assert info["files_out"] <= 3

    back = pd.read_parquet(dst).sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(back, df)


def test_quarantine_split(ray_session, tmp_path):
    """One-pass tee: good/bad partition exactly, nothing lost."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.sources.sideout import quarantine_split

    df = pd.DataFrame({"k": np.arange(10_000, dtype=np.int64)})
    ds = rd.from_pandas(df).repartition(16)

    def pred(t: pa.Table) -> pa.Array:
        return pa.array(t.column("k").to_numpy() % 7 != 0)

    info = quarantine_split(
        ds, pred, str(tmp_path / "good"), str(tmp_path / "bad")
    )
    exp_bad = (df["k"] % 7 == 0).sum()
    assert info["n_bad"] == exp_bad
    assert info["n_good"] == len(df) - exp_bad

    good = pd.read_parquet(tmp_path / "good")["k"]
    bad = pd.read_parquet(tmp_path / "bad")["k"]
    assert (good % 7 != 0).all() and (bad % 7 == 0).all()
    assert sorted(list(good) + list(bad)) == list(range(10_000))


def test_cli_catalog_and_audit(ray_session, capsys):
    import json

    from ocr_ray.cli import main

    assert main(["catalog", "--sf-dir", "/root/testdata/sf0.001"]) == 0
    cat = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert {r["table_name"] for r in cat} >= {"events", "orders", "lineitem"}

    assert main(["audit", "--sf-dir", "/root/testdata/sf0.001"]) == 0
    audit = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert len(audit) == 7 and all(r["n_orphans"] == 0 for r in audit)


def test_compact_and_quarantine_refuse_nonempty_output(ray_session, tmp_path):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from ocr_ray.sources.compact import compact_parquet
    from ocr_ray.sources.sideout import quarantine_split

    df = pd.DataFrame({"k": np.arange(100, dtype=np.int64)})
    src = str(tmp_path / "src")
    rd.from_pandas(df).repartition(4).write_parquet(src)

    out = str(tmp_path / "out")
    compact_parquet(src, out, target_rows=50)
    with pytest.raises(FileExistsError):
        compact_parquet(src, out, target_rows=50)  # would duplicate rows

    def pred(t: pa.Table) -> pa.Array:
        return pa.array(t.column("k").to_numpy() % 2 == 0)

    g, b = str(tmp_path / "g"), str(tmp_path / "b")
    quarantine_split(rd.from_pandas(df).repartition(4), pred, g, b)
    with pytest.raises(FileExistsError):
        quarantine_split(rd.from_pandas(df).repartition(4), pred, g, b)

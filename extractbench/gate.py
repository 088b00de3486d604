"""Oracle gate: every job's written spans must equal the oracle's.

The expected table is the single-process oracle
(``ocr_ray.oracle.extract_table``) over the job's turns, plus the
reconciled ordinal ``span_seq``: 0, 1, 2, ... within each conversation in
(turn_idx, span_idx) order. A written output passes only if, sorted by
(conv_id, turn_idx, span_idx), it equals that table value for value.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ocr_ray.oracle import extract_table

SORT_KEYS = [("conv_id", "ascending"), ("turn_idx", "ascending"),
             ("span_idx", "ascending")]

SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("span_idx", pa.int32()),
    ("start", pa.int64()),
    ("end", pa.int64()),
    ("text", pa.string()),
    ("score", pa.float64()),
    ("span_seq", pa.int64()),
])


def expected_table(turns: list[dict]) -> pa.Table:
    """Oracle spans of ``turns`` with their per-conversation ``span_seq``."""
    rows = extract_table(turns)
    seq, prev = [], None
    for r in rows:  # already in (conv_id, turn_idx, span_idx) order
        n = seq[-1] + 1 if r["conv_id"] == prev else 0
        seq.append(n)
        prev = r["conv_id"]
    cols = {name: [r[name] for r in rows] for name in SCHEMA.names[:-1]}
    cols["span_seq"] = seq
    table = pa.Table.from_pydict(cols, schema=SCHEMA)
    return table.sort_by(SORT_KEYS)


def check(written: pa.Table, expected: pa.Table) -> str | None:
    """None when ``written`` matches ``expected``, else what differs."""
    missing = [n for n in SCHEMA.names if n not in written.column_names]
    if missing:
        return f"missing columns {missing}"
    got = written.select(SCHEMA.names).cast(SCHEMA).sort_by(SORT_KEYS)
    if got.num_rows != expected.num_rows:
        return f"{got.num_rows} rows written, oracle has {expected.num_rows}"
    for name in SCHEMA.names:
        a, b = got.column(name), expected.column(name)
        if not a.equals(b):
            same = pc.fill_null(pc.equal(a, b), False)
            row = pc.index(same, False).as_py()
            return (f"column {name} differs at sorted row {row}: "
                    f"{a[row].as_py()!r} != oracle {b[row].as_py()!r}")
    return None


def check_dir(out_dir: str, expected: pa.Table) -> str | None:
    """Gate the Parquet files a job wrote to ``out_dir``."""
    return check(pq.read_table(out_dir), expected)

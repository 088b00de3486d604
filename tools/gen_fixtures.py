"""Generate the committed golden fixtures (FIXTURES.md §2/§3 — the
reference's golden-.npy idiom, SURVEY.md §5.2).

Writes tests/fixtures/golden_turns.parquet (deterministic representative
inputs) and tests/fixtures/golden_spans.parquet (the oracle's output at
generation time). tests/test_golden.py asserts today's chain still
produces EXACTLY these spans — catching accidental semantic drift that
shared-code Ray-vs-oracle parity cannot (both sides drift together).

Re-run this tool ONLY on an intentional semantics change, and say so in
the commit message.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pyarrow as pa
import pyarrow.parquet as pq

from ocr_ray.corpus import turns_table_for_convs
from ocr_ray.oracle import extract_table

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "tests", "fixtures")

SPAN_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("span_idx", pa.int32()),
        ("start", pa.int64()),
        ("end", pa.int64()),
        ("text", pa.string()),
        ("score", pa.float64()),
    ]
)


def main() -> None:
    os.makedirs(FIXTURE_DIR, exist_ok=True)
    # 25 deterministic conversations cover every payload kind and edge
    # variant (corpus hash mixes kinds across conv/turn indices)
    turns = turns_table_for_convs(list(range(1, 26)))  # skip mega conv 0: keep fixtures small
    pq.write_table(turns, os.path.join(FIXTURE_DIR, "golden_turns.parquet"))
    spans = extract_table(turns.to_pylist())
    pq.write_table(
        pa.Table.from_pylist(spans, schema=SPAN_SCHEMA),
        os.path.join(FIXTURE_DIR, "golden_spans.parquet"),
    )

    # operator-level goldens (FIXTURES.md §3): dense scored units (A1/M5
    # stage output) and propose/NMS spans without decode (M4-M8 + D1/D2)
    from ocr_ray.stages.extractor import propose_only, score_units_batch
    from ocr_ray.stages.normalize import normalize_batch

    norm = normalize_batch(
        turns.select(["conv_id", "turn_idx", "text"])
    )
    units = score_units_batch(norm)
    pq.write_table(units, os.path.join(FIXTURE_DIR, "golden_units.parquet"))
    proposed = propose_only(turns.select(["conv_id", "turn_idx", "text"]))
    pq.write_table(proposed, os.path.join(FIXTURE_DIR, "golden_propose.parquet"))
    print(
        f"wrote {turns.num_rows} turns, {len(spans)} spans, "
        f"{units.num_rows} units, {proposed.num_rows} proposals to {FIXTURE_DIR}"
    )


if __name__ == "__main__":
    main()

"""Per-partition lineage + checkpoint/resume for the extraction pipeline
(north-rule requirement; FIXTURES.md §4 lineage schema).

Design (SURVEY.md §4 "Checkpoint/resume" row):

- Partition unit = input parquet file (at cluster scale: file groups sized
  to ~1-10 GB). Each partition is extracted independently and written to
  ``out_dir/spans/part-<id>/`` ATOMICALLY (write to a temp dir, rename;
  a partition without spans leaves one typed 0-row file), then a
  lineage record is appended to ``<ckpt>/lineage/<id>.json``:
  partition_id, input fragments, row ranges, operator versions, counters
  (turns_in, spans_out), status.
- On restart, partitions whose lineage record is ``complete`` AND whose
  operator-version fingerprint matches are skipped — no recomputation, no
  duplicates (idempotent deterministic output layout).
- Reconciliation (the conv_id shuffle) is stage 2 with its own lineage
  record, reading the (small) span parts — so a mid-pipeline crash after
  extraction resumes at the shuffle, not at the payload scan. Below the
  reconcile limit the driver writes ``reconciled/`` as one file.

The operator-version fingerprint hashes the semantic constants
(ocr_ray.config) so a semantics change invalidates old checkpoints.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import pyarrow.parquet as pq

from ..pqread import parquet_files
from ..pqread import read_parquet as _read_parquet

from .. import config as C

__all__ = ["operator_fingerprint", "CheckpointedExtraction"]

ENGINE_VERSION = "0.1.0"


def operator_fingerprint() -> str:
    """Hash of the semantic constants: changing extraction semantics
    invalidates prior checkpoints."""
    payload = {
        "version": ENGINE_VERSION,
        "char_vector": C.CHAR_VECTOR,
        "score_thresh": C.SCORE_THRESH,
        "box_thresh": C.BOX_THRESH,
        "nms_thresh": C.NMS_THRESH,
        "dilate": C.DILATE_UNITS,
        "min_span": C.MIN_SPAN_LEN,
        "min_text": C.MIN_TEXT_SIZE,
        "max_spans": C.MAX_SPANS_PER_TURN,
        "max_tokens": C.MAX_DECODE_TOKENS,
        "blanks": sorted(C.DECODER_BLANKS),
        "tags": sorted(C.TAG_WEIGHTS.items()),
    }
    return hashlib.md5(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _rows(d: str) -> int:
    """Rows of the parquet files in ``d``, from their footers."""
    return sum(pq.read_metadata(os.path.join(d, f)).num_rows
               for f in parquet_files(d))


class CheckpointedExtraction:
    """Resumable two-stage extraction run.

    >>> run = CheckpointedExtraction(turns_dir, out_dir)
    >>> run.execute()           # crash any time; rerun resumes
    """

    def __init__(self, turns_path: str, out_dir: str):
        self.turns_path = turns_path
        self.out_dir = out_dir
        self.spans_dir = os.path.join(out_dir, "spans")
        self.final_dir = os.path.join(out_dir, "reconciled")
        self.lineage_dir = os.path.join(out_dir, "lineage")
        os.makedirs(self.lineage_dir, exist_ok=True)
        self.fingerprint = operator_fingerprint()

    # -- lineage records ---------------------------------------------------

    def _record_path(self, pid: str) -> str:
        return os.path.join(self.lineage_dir, f"{pid}.json")

    def _is_complete(self, pid: str) -> bool:
        p = self._record_path(pid)
        if not os.path.exists(p):
            return False
        try:
            with open(p) as f:
                rec = json.load(f)
        except (OSError, json.JSONDecodeError):
            return False
        return (
            rec.get("status") == "complete"
            and rec.get("operator_versions", {}).get("extract") == self.fingerprint
        )

    def _write_record(self, pid: str, **fields) -> None:
        rec = {
            "partition_id": pid,
            "operator_versions": {"extract": self.fingerprint},
            "status": "complete",
            **fields,
        }
        tmp = self._record_path(pid) + ".tmp"
        with open(tmp, "w") as f:
            json.dump(rec, f)
        os.replace(tmp, self._record_path(pid))

    # -- partitions --------------------------------------------------------

    def partitions(self) -> list[str]:
        if os.path.isdir(self.turns_path):
            return parquet_files(self.turns_path)
        return [os.path.basename(self.turns_path)]

    def _partition_file(self, pid: str) -> str:
        if os.path.isdir(self.turns_path):
            return os.path.join(self.turns_path, pid)
        return self.turns_path

    # -- stages ------------------------------------------------------------

    def extract_partition(self, pid: str) -> dict:
        """Stage 1 for one partition: extract spans, atomic write, lineage."""
        from ..pipelines.extract import extract_spans, read_turns, write_spans

        part_id = pid.replace(".parquet", "")
        # "part-" (not "part=") so parquet readers don't hive-parse the dir
        dest = os.path.join(self.spans_dir, f"part-{part_id}")
        if self._is_complete(f"extract-{part_id}"):
            return {"partition": part_id, "skipped": True}
        tmp = dest + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(dest, ignore_errors=True)

        turns = read_turns(self._partition_file(pid))
        turns_in = turns.count()
        write_spans(extract_spans(turns), tmp)
        os.rename(tmp, dest)
        counters = {"turns_in": turns_in, "spans_out": _rows(dest)}
        self._write_record(
            f"extract-{part_id}",
            input_fragments=[self._partition_file(pid)],
            row_range={"begin": 0, "end": turns_in},
            counters=counters,
        )
        return {"partition": part_id, "skipped": False, **counters}

    def _extract_state(self) -> list[list]:
        """Current (partition_id, spans_out) snapshot across all complete
        extract records — the reconcile stage's consumed-input identity."""
        state = []
        for pid in self.partitions():
            part_id = pid.replace(".parquet", "")
            p = self._record_path(f"extract-{part_id}")
            if os.path.exists(p):
                try:
                    with open(p) as f:
                        rec = json.load(f)
                except (OSError, json.JSONDecodeError):
                    continue
                state.append([part_id, rec.get("counters", {}).get("spans_out")])
        return sorted(state)

    def reconcile_stage(self) -> dict:
        """Stage 2: global conv_id reconciliation over all span parts.

        Skips only when its own record is complete AND the recorded
        consumed-input snapshot matches the current extract records — a
        re-extracted / new / invalidated stage-1 partition forces a re-run
        (otherwise the reconciled output would go silently stale)."""
        from ..pipelines.extract import reconcile_and_write

        consumed = self._extract_state()
        if self._is_complete("reconcile"):
            p = self._record_path("reconcile")
            try:
                with open(p) as f:
                    rec = json.load(f)
            except (OSError, json.JSONDecodeError):
                rec = {}
            if rec.get("consumed") == consumed:
                return {"stage": "reconcile", "skipped": True}
        tmp = self.final_dir + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(self.final_dir, ignore_errors=True)
        reconcile_and_write(_read_parquet(self.spans_dir), tmp)
        os.rename(tmp, self.final_dir)
        n = _rows(self.final_dir)
        self._write_record(
            "reconcile",
            input_fragments=[self.spans_dir],
            counters={"spans_out": n},
            consumed=consumed,
        )
        return {"stage": "reconcile", "skipped": False, "spans_out": n}

    def execute(self) -> list[dict]:
        """Run all incomplete partitions then the reconcile stage."""
        results = [self.extract_partition(pid) for pid in self.partitions()]
        results.append(self.reconcile_stage())
        return results

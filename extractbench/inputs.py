"""Seeded benchmark inputs: transcript Parquet files, one directory per job.

Every workload is a list of job inputs. A job input is a directory holding
one Parquet file in the corpus schema (``ocr_ray.corpus.TURNS_SCHEMA``);
the program under test only ever sees that directory. Inputs are built from
the public corpus generator (``gen_conversation``) and cached under the
checkout's ``.bench_cache/inputs``, keyed by workload, seed and size, so a
rerun with the same seed reads the same bytes.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.parquet as pq

from ocr_ray.corpus import TURNS_SCHEMA, gen_conversation, payload_kind_bucket

# Bump when a generator below changes, so stale cached inputs are not reused.
GEN_VERSION = 1

# Job sizes, per workload. Chosen so one job runs for roughly a second at
# one CPU and a run of a few seconds holds enough jobs for a median.
MIXED_CONVS = 400          # conversations 0..399, conv 0 is a 300-turn mega
LONGDOC_DOCS = 6           # two each of plain, html, pdfish
LONGDOC_BYTES = 250_000    # minimum payload size of one long document
GROUP = 14                 # payloads per long paragraph / page
SMALL_JOBS = 8             # distinct small job inputs, cycled
SMALL_CONVS = 50           # conversations per small job


@dataclass(frozen=True)
class JobInput:
    path: str              # directory handed to run_extraction
    turns: int
    payload_bytes: int     # utf-8 bytes of the ``text`` column


def _write_job(path: str, rows: list[dict]) -> None:
    os.makedirs(path)
    table = pa.Table.from_pylist(rows, schema=TURNS_SCHEMA)
    pq.write_table(table, os.path.join(path, "part-0.parquet"))


def _mixed_rows(seed: int) -> list[list[dict]]:
    rows: list[dict] = []
    for conv in range(MIXED_CONVS):
        rows.extend(gen_conversation(conv, seed))
    return [rows]


def _small_rows(seed: int) -> list[list[dict]]:
    # conv ids start at 1 so no small job holds a mega-conversation
    jobs = []
    for k in range(SMALL_JOBS):
        first = 1 + k * SMALL_CONVS
        rows: list[dict] = []
        for conv in range(first, first + SMALL_CONVS):
            rows.extend(gen_conversation(conv, seed))
        jobs.append(rows)
    return jobs


def _payloads_by_kind(seed: int, need: int) -> dict[str, list[str]]:
    """Plain, html and pdfish payloads of seeded conversations, at least
    ``need`` characters of each kind; conversation ids run from 10**6 to
    stay clear of the other workloads' ids."""
    have = {"plain": 0, "html": 0, "pdfish": 0}
    out: dict[str, list[str]] = {k: [] for k in have}
    conv = 10**6
    while min(have.values()) < need:
        conv += 1
        if conv % 997 == 0:
            continue
        for row in gen_conversation(conv, seed):
            kind = payload_kind_bucket(conv, row["turn_idx"])
            if kind in out and row["text"]:
                out[kind].append(row["text"])
                have[kind] += len(row["text"])
    return out


def _groups(parts: list[str], size: int) -> list[list[str]]:
    return [parts[i:i + size] for i in range(0, len(parts), size)]


def _long_plain(parts: list[str]) -> str:
    # each paragraph joins GROUP payloads (blank lines removed), so it runs
    # past the decode window; there are far more paragraphs than the cap
    return "\n\n".join(
        "\n".join(line for p in g for line in p.split("\n") if line.strip())
        for g in _groups(parts, GROUP)
    )


def _long_html(parts: list[str], words: list[str]) -> str:
    # html spans all score 1.0 and the cap keeps ties in document order, so
    # the long paragraph goes first to survive the cap
    return "<html><body>\n<p>" + " ".join(words) + "</p>\n" + "\n".join(
        parts) + "\n</body></html>"


def _long_pdfish(parts: list[str]) -> str:
    # each page holds GROUP payloads' records and becomes one span past the
    # decode window
    lines = ["%PDF"]
    y = 100
    for page, g in enumerate(_groups(parts, GROUP)):
        for p in g:
            for rec in p.split("\n")[1:]:
                _, _, _, x, text = rec.split(" ", 4)
                lines.append(f"L {page} {y} {x} {text}")
                y += 12
    return "\n".join(lines)


def _longdoc_rows(seed: int) -> list[list[dict]]:
    per_doc = LONGDOC_BYTES
    pool = _payloads_by_kind(seed, 2 * per_doc)
    docs: list[str] = []
    for kind in ("plain", "html", "pdfish"):
        parts = pool[kind]
        cut, size = 0, 0
        while size < per_doc and cut < len(parts):
            size += len(parts[cut])
            cut += 1
        for chunk in (parts[:cut], parts[cut:2 * cut]):
            if kind == "plain":
                docs.append(_long_plain(chunk))
            elif kind == "html":
                words = " ".join(pool["plain"][:GROUP]).split()
                docs.append(_long_html(chunk, words))
            else:
                docs.append(_long_pdfish(chunk))
    rows = [
        {"conv_id": f"doc-{seed % 10**6:06d}-{i:02d}", "turn_idx": 0,
         "role": "tool", "text": d, "tool": "browser", "ts": None}
        for i, d in enumerate(docs)
    ]
    return [rows]


WORKLOADS = {
    "mixed": (_mixed_rows, f"c{MIXED_CONVS}"),
    "longdoc": (_longdoc_rows, f"d{LONGDOC_DOCS}x{LONGDOC_BYTES}"),
    "smalljobs": (_small_rows, f"k{SMALL_JOBS}x{SMALL_CONVS}"),
}


def build_inputs(cache_dir: str, workload: str, seed: int) -> list[JobInput]:
    """Return the job inputs of ``workload`` for ``seed``, generating and
    caching them on first use (written to a temporary directory, then
    renamed, so an interrupted run leaves no half-written cache entry)."""
    make_rows, size_tag = WORKLOADS[workload]
    key = f"{workload}-s{seed}-{size_tag}-v{GEN_VERSION}"
    final = os.path.join(cache_dir, key)
    meta_path = os.path.join(final, "meta.json")
    if not os.path.exists(meta_path):
        tmp = f"{final}.tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        meta = []
        for k, rows in enumerate(make_rows(seed)):
            _write_job(os.path.join(tmp, f"job{k}"), rows)
            meta.append({
                "job": f"job{k}",
                "turns": len(rows),
                "payload_bytes": sum(len(r["text"].encode()) for r in rows),
            })
        with open(os.path.join(tmp, "meta.json"), "w") as fh:
            json.dump(meta, fh)
        shutil.rmtree(final, ignore_errors=True)
        os.rename(tmp, final)
    with open(meta_path) as fh:
        meta = json.load(fh)
    return [
        JobInput(os.path.join(final, m["job"]), m["turns"], m["payload_bytes"])
        for m in meta
    ]


def read_turn_dicts(job: JobInput) -> list[dict]:
    """The job's turns as dicts, for the oracle."""
    return pq.read_table(
        job.path, columns=["conv_id", "turn_idx", "text"]
    ).to_pylist()


def warm_page_cache(jobs: list[JobInput]) -> None:
    """Read every input file once so timed jobs do not wait on the disk."""
    for job in jobs:
        for name in os.listdir(job.path):
            with open(os.path.join(job.path, name), "rb") as fh:
                while fh.read(1 << 20):
                    pass

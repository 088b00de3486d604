"""Ray-free ratchet on the engine's pandas seams: the number of
``batch_format="pandas"`` sites and ``pin_schema(`` calls per module
under ``ocr_ray/`` may fall but never rise. When a change removes some,
lower the table to the new counts."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent / "ocr_ray"

# module -> (batch_format="pandas" sites, pin_schema calls)
CEILING = {
    "functions/dedup.py": (16, 0),
    "functions/fuzzy.py": (1, 0),
    "functions/packing.py": (1, 0),
    "functions/retrieval.py": (2, 1),
    "functions/similarity.py": (1, 0),
    "functions/textstats.py": (2, 0),
    "pipelines/graph.py": (4, 1),
    "pipelines/joins.py": (26, 0),
    "pipelines/relational.py": (5, 0),
    "pipelines/tpch_ext.py": (17, 3),
    "pipelines/training.py": (6, 3),
}


def _counts() -> dict:
    out = {}
    for path in sorted(ROOT.rglob("*.py")):
        src = path.read_text()
        n = (src.count('batch_format="pandas"'),
             len(re.findall(r"(?<!def )\bpin_schema\(", src)))
        if any(n):
            out[path.relative_to(ROOT).as_posix()] = n
    return out


@pytest.mark.parametrize("kind", [0, 1], ids=["pandas_batches", "pin_schema"])
def test_pandas_seams_do_not_grow(kind):
    over = {m: n[kind] for m, n in _counts().items()
            if n[kind] > CEILING.get(m, (0, 0))[kind]}
    assert not over, f"above the ceiling table: {over}"

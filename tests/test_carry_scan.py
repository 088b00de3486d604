"""The shared sorted carry-scan on the key shapes its callers use:
a descending-key running sum (the Pareto query) and a string leading
key (span reconciliation), across block counts."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


@pytest.mark.parametrize("nblocks", [1, 3, 17])
def test_descending_running_sum(ray_session, nblocks):
    import ray.data as rd

    from ocr_ray.stages.carry_scan import sorted_carry_scan

    rng = np.random.RandomState(5)
    r = rng.randint(0, 50, 600).astype(np.int64)  # many ties on r
    ds = rd.from_arrow(pa.table({"r": r, "id": np.arange(600, dtype=np.int64)}))

    def apply(t, carry, final):
        if t.num_rows == 0:
            return pa.table({"id": pa.array([], pa.int64()),
                             "cum": pa.array([], pa.int64()),
                             "total": pa.array([], pa.int64())})
        cum = carry + np.cumsum(t.column("r").to_numpy())
        return pa.table({"id": t.column("id"), "cum": cum,
                         "total": np.full(t.num_rows, final)})

    got = sorted_carry_scan(
        ds, ["r", "id"], block_stat=lambda t: int(np.sum(t.column("r"))),
        init=0, fold=lambda s, b: s + b, apply_fn=apply,
        descending=[True, False], nblocks=nblocks,
    ).to_pandas().set_index("id")

    order = np.lexsort((np.arange(600), -r))  # r desc, id asc
    want = pd.Series(np.cumsum(r[order]), index=order)
    assert (got.loc[want.index, "cum"].to_numpy() == want.to_numpy()).all()
    assert (got["total"] == r.sum()).all()


@pytest.mark.parametrize("nblocks", [1, 3, 17])
def test_string_group_ordinal(ray_session, nblocks):
    import ray.data as rd

    from ocr_ray.stages.carry_scan import group_ordinal_scan

    rng = np.random.RandomState(9)
    # one hot key spanning many blocks, plus small groups
    conv = np.array(["k%02d" % rng.randint(12) for _ in range(500)] + ["hot"] * 300)
    df = pd.DataFrame({"conv": conv, "pos": rng.permutation(len(conv))})

    def apply(t, seq):
        return t.append_column("seq", pa.array(seq, pa.int64()))

    got = (
        group_ordinal_scan(rd.from_pandas(df), ["conv", "pos"], apply,
                           nblocks=nblocks)
        .to_pandas().sort_values(["conv", "pos"]).reset_index(drop=True)
    )
    want = df.sort_values(["conv", "pos"]).reset_index(drop=True)
    want["seq"] = want.groupby("conv").cumcount()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

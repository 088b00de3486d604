"""Windowed/streaming operators and the partitioned hash join vs
brute-force pandas on the sf0.001 tables."""

import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


def _events() -> pd.DataFrame:
    return pq.read_table(os.path.join(SF, "events.parquet")).to_pandas()


def test_tumbling_window(ray_session):
    from ocr_ray.pipelines.streaming import tumbling_window

    got = tumbling_window(SF)
    ev = _events()
    ev["window_start"] = ev["ts"].dt.strftime("%Y-%m-%d %H:00:00")
    exp = (
        ev.groupby(["user_id", "window_start"])
        .agg(n=("value", "size"), sum_value=("value", lambda v: np.round(v * 100).astype(np.int64).sum() / 100.0))
        .reset_index()
        .sort_values(["user_id", "window_start"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[["user_id", "window_start", "n", "sum_value"]].astype({"n": np.int64}),
        exp.astype({"n": np.int64}),
        check_dtype=False,
    )


def test_session_windows(ray_session):
    from ocr_ray.pipelines.streaming import SESSION_GAP_MIN, session_windows

    got = session_windows(SF)
    ev = _events().sort_values(["user_id", "ts"])
    rows = []
    for uid, g in ev.groupby("user_id"):
        ts = g["ts"].to_list()
        start, n = ts[0], 1
        prev = ts[0]
        for t in ts[1:]:
            if (t - prev).total_seconds() > SESSION_GAP_MIN * 60:
                rows.append((uid, start, n, int((prev - start).total_seconds())))
                start, n = t, 1
            else:
                n += 1
            prev = t
        rows.append((uid, start, n, int((prev - start).total_seconds())))
    exp = pd.DataFrame(rows, columns=["user_id", "session_start", "n_events", "duration_sec"])
    exp = exp.sort_values(["user_id", "session_start"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_sessionize_incremental_equals_batch(ray_session):
    """The stateful-actor streaming sessionizer produces exactly the batch
    groupby sessionization output."""
    from ocr_ray.pipelines.streaming import session_windows, sessionize_incremental

    batch = session_windows(SF)
    inc = sessionize_incremental(SF)
    pd.testing.assert_frame_equal(batch, inc, check_dtype=False)


def test_asof_last_login(ray_session):
    from ocr_ray.pipelines.streaming import asof_last_login

    got = asof_last_login(SF)
    ev = _events()
    clicks = ev[ev.event_type == "click"]
    assert len(got) == len(clicks)
    # spot-check each row: last_login_ts is the max signup ts <= click ts
    logins = ev[ev.event_type == "signup"]
    # the anchor type must actually occur, else the join grades vacuously
    assert len(logins) > 0 and got["last_login_ts"].notna().any()
    for _, r in got.head(50).iterrows():
        ls = logins[(logins.user_id == r.user_id) & (logins.ts <= r.ts)]["ts"]
        if ls.empty:
            assert pd.isna(r.last_login_ts)
        else:
            assert r.last_login_ts == ls.max()


def test_bucket_hash_join_matches_pandas(ray_session):
    import ray.data as rd

    from ocr_ray.pipelines.joins import bucket_hash_join

    left = pd.DataFrame({"k": [1, 2, 2, 3, 5], "a": ["x", "y", "z", "w", "v"]})
    right = pd.DataFrame({"k": [2, 3, 3, 4], "b": [10, 20, 30, 40]})
    got = (
        bucket_hash_join(rd.from_pandas(left), rd.from_pandas(right), on="k", n_buckets=4)
        .to_pandas()
        .sort_values(["k", "a", "b"])
        .reset_index(drop=True)
    )
    exp = left.merge(right, on="k").sort_values(["k", "a", "b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_bucket_hash_join_arrow_kernel_matches_pandas(ray_session):
    """The Arrow in-bucket kernel matches pandas merge: same rows,
    declared int dtypes preserved (no float promotion), more buckets
    than keys (empty partitions), and the output chains into a
    follow-on bucketed join."""
    import ray.data as rd

    from ocr_ray.pipelines.joins import bucket_hash_join

    left = pd.DataFrame({"k": [1, 2, 2, 3, 5], "a": ["x", "y", "z", "w", "v"]})
    right = pd.DataFrame({"k": [2, 3, 3, 4], "b": [10, 20, 30, 40]})
    ds = bucket_hash_join(
        rd.from_pandas(left), rd.from_pandas(right), on="k", n_buckets=16,
    )
    got = ds.to_pandas().sort_values(["k", "a", "b"]).reset_index(drop=True)
    exp = left.merge(right, on="k").sort_values(["k", "a", "b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)
    assert got["k"].dtype == "int64" and got["b"].dtype == "int64"

    # chains: feed the join output into a second bucketed join
    dim = pd.DataFrame({"k": [2, 3], "c": [7, 8]})
    got2 = bucket_hash_join(
        ds, rd.from_pandas(dim), on="k", n_buckets=4,
        left_dtypes={"k": "int64", "a": object, "b": "int64"},
        right_dtypes={"k": "int64", "c": "int64"},
    ).to_pandas().sort_values(["k", "a", "b"]).reset_index(drop=True)
    exp2 = exp.merge(dim, on="k").sort_values(["k", "a", "b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got2, exp2)

    # left join: unmatched rows carry nulls in the right-side columns
    gotl = bucket_hash_join(
        rd.from_pandas(left), rd.from_pandas(right), on="k", n_buckets=4,
        how="left",
    ).to_pandas().sort_values(["k", "a", "b"]).reset_index(drop=True)
    expl = left.merge(right, on="k", how="left").sort_values(
        ["k", "a", "b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(gotl, expl, check_dtype=False)


def test_cogroup_bucket_join_different_keys_and_dtypes(ray_session):
    """bucket_hash_join: differently-named keys, int dtypes kept through
    the union (no silent float upcast), chains into a second shuffle
    without schema poisoning."""
    import ray.data as rd

    from ocr_ray.pipelines.joins import bucket_hash_join

    left = pd.DataFrame({"ka": [1, 2, 2, 3], "v": [10, 20, 30, 40]})
    right = pd.DataFrame({"kb": [2, 3, 4], "w": [200, 300, 400]})
    out = bucket_hash_join(
        rd.from_pandas(left), rd.from_pandas(right), on="ka", right_on="kb",
        n_buckets=4,
    )
    # chain a second shuffle over the join output (empty partitions must
    # not leak foreign schemas)
    from ray.data.aggregate import Sum

    agg = (
        out.groupby("ka").aggregate(Sum("w", alias_name="w_sum")).to_pandas()
        .sort_values("ka").reset_index(drop=True)
    )
    exp = (
        left.merge(right, left_on="ka", right_on="kb")
        .groupby("ka", as_index=False)["w"].sum()
        .rename(columns={"w": "w_sum"})
    )
    pd.testing.assert_frame_equal(agg, exp, check_dtype=False)
    df = out.to_pandas()
    assert df["v"].dtype == "int64" and df["w"].dtype == "int64"


def test_cogroup_bucket_join_binary_payload(ray_session):
    """Binary-blob payload columns (the dedup-verify pattern) survive the
    partitioned cogroup join byte-for-byte."""
    import numpy as np
    import pyarrow as pa

    import ray.data as rd

    from ocr_ray.pipelines.joins import bucket_hash_join

    pairs = rd.from_arrow(pa.table({"doc_a": pa.array([1, 2, 3], pa.int64())}))
    payload = rd.from_arrow(
        pa.table(
            {
                "doc_a": pa.array([1, 2, 3, 4], pa.int64()),
                "blob": pa.array(
                    [np.arange(i, i + 3, dtype=np.int64).tobytes() for i in range(4)],
                    pa.binary(),
                ),
            }
        )
    )
    out = bucket_hash_join(pairs, payload, on="doc_a", n_buckets=2).to_pandas()
    out = out.sort_values("doc_a").reset_index(drop=True)
    assert len(out) == 3
    for _, r in out.iterrows():
        got = np.frombuffer(r["blob"], dtype=np.int64)
        assert (got == np.arange(r["doc_a"] - 1, r["doc_a"] + 2)).all()


def test_semi_anti_join_distributed_path_matches_broadcast(ray_session):
    """Force the cogroup-join strategy (gate=0) and check it produces the
    same semi and anti results as the broadcast path."""
    import ray.data as rd

    import ocr_ray.pipelines.joins as J

    probe = pd.DataFrame({"k": [1, 2, 3, 4, 5, 6], "v": list("abcdef")})
    keys = pd.DataFrame({"k": [2, 4, 4, 9]})
    probe_ds = rd.from_pandas(probe)
    keys_ds = rd.from_pandas(keys)

    def run(anti):
        return (
            J.semi_anti_join(probe_ds, keys_ds, on="k", anti=anti)
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )

    want_semi, want_anti = run(False), run(True)
    orig = J._BROADCAST_KEY_LIMIT
    try:
        J._BROADCAST_KEY_LIMIT = 0  # force the cogroup-join strategy
        got_semi, got_anti = run(False), run(True)
    finally:
        J._BROADCAST_KEY_LIMIT = orig
    pd.testing.assert_frame_equal(got_semi, want_semi, check_dtype=False)
    pd.testing.assert_frame_equal(got_anti, want_anti, check_dtype=False)
    assert list(want_semi["k"]) == [2, 4] and list(want_anti["k"]) == [1, 3, 5, 6]


def test_cogroup_bucket_join_randomized_vs_pandas(ray_session):
    """Randomized bucket join == pandas merge (isin for semi/anti) across
    seeds, key skews, missing keys, bucket counts, both key-name
    arrangements, every ``how``, list<int64> and binary payloads, more
    buckets than keys (one-sided buckets) and an empty side."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.pipelines.joins import bucket_hash_join

    for seed in (0, 1, 2):
        rng = np.random.RandomState(seed)
        left = pd.DataFrame(
            {"k": rng.randint(0, 40, 200).astype(np.int64),
             "a": rng.randint(0, 1000, 200).astype(np.int64)}
        )
        right = pd.DataFrame(
            {"rk": rng.randint(20, 60, 80).astype(np.int64),
             "b": [f"s{i}" for i in range(80)]}
        )
        nb = int(rng.choice([2, 8, 64]))
        got = (
            bucket_hash_join(
                rd.from_pandas(left).repartition(5),
                rd.from_pandas(right).repartition(3),
                on="k", right_on="rk", n_buckets=nb,
            )
            .to_pandas()
            .sort_values(["k", "a", "b"])
            .reset_index(drop=True)
        )
        want = (
            left.merge(right, left_on="k", right_on="rk")
            .sort_values(["k", "a", "b"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got[want.columns.tolist()], want,
                                      check_dtype=False)
        assert got["a"].dtype == "int64" and got["k"].dtype == "int64"

    def canon(df: pd.DataFrame, cols: list) -> list:
        # order-free row multiset; numbers compare as float, null/NaN as
        # None, list payloads as tuples
        def cell(v):
            if isinstance(v, (list, np.ndarray)):
                return tuple(int(x) for x in v)
            if v is None or (isinstance(v, float) and np.isnan(v)):
                return None
            if isinstance(v, (int, float, np.integer, np.floating)):
                return float(v)
            return v

        return sorted(
            (tuple(cell(v) for v in row)
             for row in df[cols].itertuples(index=False)),
            key=repr,
        )

    rng = np.random.RandomState(7)
    left = pd.DataFrame({
        "k": rng.randint(0, 12, 60).astype(np.int64),
        "a": np.arange(60, dtype=np.int64),
        "la": [list(range(i % 4)) for i in range(60)],
    })
    right = pd.DataFrame({
        "rk": rng.randint(6, 18, 30).astype(np.int64),
        "rb": [bytes([i, 255 - i]) for i in range(30)],
    })
    lt = pa.Table.from_pandas(left, preserve_index=False).cast(pa.schema(
        [("k", pa.int64()), ("a", pa.int64()), ("la", pa.list_(pa.int64()))]))
    rt = pa.Table.from_pandas(right, preserve_index=False).cast(pa.schema(
        [("rk", pa.int64()), ("rb", pa.binary())]))

    def blocks(t: pa.Table) -> rd.Dataset:
        # 25-row blocks; an empty side is one empty block with a schema
        return rd.from_arrow(
            [t.slice(i, 25) for i in range(0, max(t.num_rows, 1), 25)])

    def check(lt, rt, how, on, right_on, nb):
        ds = bucket_hash_join(blocks(lt), blocks(rt), on=on,
                              right_on=right_on, how=how,
                              n_buckets=nb).materialize()
        lp, rp = lt.to_pandas(), rt.to_pandas()
        rkey = right_on or on
        if how in ("semi", "anti"):
            hit = lp[on].isin(rp[rkey])
            want = lp[hit if how == "semi" else ~hit]
        else:
            want = lp.merge(rp, left_on=on, right_on=rkey, how=how)
        cols = list(want.columns)
        case = (how, on, right_on, nb)
        assert ds.count() == len(want), case
        # a zero-row result is only Ray's schema-less filler blocks
        if len(want):
            assert sorted(ds.schema().names) == sorted(cols), case
            got = pd.DataFrame(ds.take_all())  # to_pandas rejects ragged lists
            assert canon(got, cols) == canon(want, cols), case

    same = rt.rename_columns(["k", "rb"])
    for how in ("inner", "left", "outer", "semi", "anti"):
        # 64 buckets over <= 18 keys: most buckets hold one side only
        check(lt, rt, how, "k", "rk", 64)
        check(lt, same, how, "k", None, 3)
        check(lt, rt.slice(0, 0), how, "k", "rk", 4)  # empty right side
    for how in ("inner", "outer"):
        check(lt.slice(0, 0), rt, how, "k", "rk", 4)  # empty left side


def test_cluster_pairs_dataset_matches_union_find(ray_session):
    """Distributed min-label propagation == driver union-find on a graph
    with a chain (multi-round convergence) and an isolated pair."""
    import ray.data as rd

    from ocr_ray.functions.dedup import cluster_pairs, cluster_pairs_dataset

    pairs = pd.DataFrame(
        {"doc_a": [10, 11, 12, 13, 50, 7], "doc_b": [11, 12, 13, 14, 51, 10]}
    )
    want = cluster_pairs(pairs).sort_values("doc_id").reset_index(drop=True)
    got = (
        cluster_pairs_dataset(rd.from_pandas(pairs))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[["doc_id", "cluster_id"]], want[["doc_id", "cluster_id"]],
        check_dtype=False,
    )


def test_grouped_topn_randomized_matches_pandas(ray_session):
    """Randomized grouped_topn vs pandas rank brute: seeds x group skews x
    n, plus a 0-row input; rank order and payload identical."""
    import pyarrow as pa

    from ocr_ray.stages.partial_agg import collect_table, grouped_topn

    import ray.data as rd

    schema = pa.schema([("k", pa.int64()), ("g", pa.int64()),
                        ("v", pa.float64())])
    for seed, n_groups, n_rows, topn in [
        (0, 3, 200, 2), (1, 40, 500, 3), (2, 1, 50, 5), (3, 1, 0, 2),
    ]:
        rng = np.random.RandomState(seed)
        df = pd.DataFrame(
            {"g": rng.randint(0, n_groups, size=n_rows).astype(np.int64),
             "k": np.arange(n_rows, dtype=np.int64),
             "v": np.round(rng.standard_normal(n_rows), 6)}
        )
        ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
        got = (
            collect_table(
                grouped_topn(
                    ds.repartition(5), "g",
                    [("v", "descending"), ("k", "ascending")], topn, schema,
                ),
                schema.append(pa.field("rank", pa.int64())),
            )
            .to_pandas()
            .sort_values(["g", "rank"])
            .reset_index(drop=True)
        )
        want = df.sort_values(["g", "v", "k"], ascending=[True, False, True],
                              kind="mergesort")
        want["rank"] = want.groupby("g").cumcount() + 1
        want = want[want["rank"] <= topn].sort_values(["g", "rank"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got, want[["k", "g", "v", "rank"]], check_dtype=False
        )


def _agg_cases():
    """(name, table) inputs of the grouped_agg oracle test: 0 rows, 1 row,
    random keys with nulls next to an all-null value column, and one hot
    key holding ~90% of the rows."""
    import pyarrow as pa

    def table(k, g, v, f, ts):
        n = len(k)
        return pa.table({
            "k": pa.array(k, pa.int64()), "g": pa.array(g, pa.string()),
            "v": pa.array(v, pa.int64()), "f": pa.array(f, pa.float64()),
            "z": pa.nulls(n, pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
        })

    rng = np.random.RandomState(11)
    n = 600
    ts = (np.datetime64("2024-01-01T00:00:00", "us")
          + rng.randint(0, 10**12, n).astype("timedelta64[us]"))
    # null keys only in the later blocks: a key must land in one bucket
    # whether or not its block also holds nulls
    k = [None if x == 0 and i >= n // 2 else int(x)
         for i, x in enumerate(rng.randint(0, 30, n))]
    g = [None if x == 0 else "abc"[x % 3] for x in rng.randint(0, 7, n)]
    v = [None if x < 0 else int(x) for x in rng.randint(-50, 1000, n)]
    f = list(rng.randint(-8, 8, n) / 2.0)
    hot = [7 if x < 9 else int(x) for x in rng.randint(0, 100, n)]
    return [
        ("empty", table([], [], [], [], [])),
        ("one_row", table([3], ["a"], [5], [1.5], ts[:1])),
        ("nulls", table(k, g, v, f, ts)),
        ("hot_key", table(hot, ["a"] * n, v, f, ts)),
    ]


@pytest.mark.parametrize("case", [c for c, _ in _agg_cases()])
def test_grouped_agg_matches_duckdb_group_by(ray_session, case):
    """The distributed grouped_agg against DuckDB's GROUP BY on the same
    rows split over several blocks: null keys are groups, a sum over only
    nulls is null, MIN of a timestamp stays a timestamp, and the output
    is typed even on a 0-row input."""
    import duckdb
    import pyarrow as pa

    import ray.data as rd

    from ocr_ray.stages.partial_agg import collect_table, grouped_agg

    t = dict(_agg_cases())[case]
    blocks = [t.slice(i, 97) for i in range(0, t.num_rows, 97)] or [t]
    schema = pa.schema([("k", pa.int64()), ("g", pa.string()),
                        ("v", pa.int64()), ("f", pa.float64()),
                        ("z", pa.int64()), ("ts", pa.timestamp("us")),
                        ("n", pa.int64())])
    got = collect_table(
        grouped_agg(rd.from_arrow(blocks), ["k", "g"], ["v", "f", "z"],
                    min_cols=["ts"]),
        schema,
    )
    assert got.schema == schema
    want = duckdb.sql(
        "SELECT k, g, SUM(v)::BIGINT AS v, SUM(f) AS f, SUM(z)::BIGINT AS z,"
        " MIN(ts) AS ts, COUNT(*) AS n FROM t GROUP BY k, g"
    ).arrow().cast(schema)
    order = [("k", "ascending"), ("g", "ascending")]
    assert got.sort_by(order).equals(want.sort_by(order))


def test_rolling_user_sum_negative_values(ray_session, tmp_path):
    """Segment-offset cumsum is sign-safe: synthetic events with negative
    values match the pandas groupby cumsum brute."""
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from ocr_ray.pipelines.streaming import rolling_user_sum

    rng = np.random.RandomState(3)
    n = 400
    ev = pd.DataFrame(
        {"event_id": np.arange(n, dtype=np.int64),
         "user_id": rng.randint(0, 20, size=n).astype(np.int64),
         "ts": pd.Timestamp("2024-01-01")
               + pd.to_timedelta(rng.randint(0, 10_000, size=n), unit="s"),
         "value": np.round(rng.standard_normal(n) * 50, 2)}  # negatives
    )
    d = str(tmp_path / "neg")
    import os as _os

    _os.makedirs(d, exist_ok=True)
    pq_.write_table(
        pa.Table.from_pandas(ev, preserve_index=False),
        _os.path.join(d, "events.parquet"),
    )
    got = rolling_user_sum(d)
    ev["value_c"] = np.where(
        ev["value"] >= 0,
        np.floor(ev["value"] * 100 + 0.5),
        np.ceil(ev["value"] * 100 - 0.5),
    ).astype(np.int64)
    ev = ev.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    ev["running_sum"] = ev.groupby("user_id")["value_c"].cumsum() / 100.0
    want = ev.sort_values("event_id")[
        ["event_id", "user_id", "running_sum"]
    ].reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_events_value_tiers_matches_pandas(ray_session):
    """Broadcast range-join binning == pandas cut brute (half-open [lo,hi)
    ranges, unbounded ends)."""
    import pyarrow.parquet as pq_

    from ocr_ray.pipelines.relational import events_value_tiers

    got = events_value_tiers(SF)
    ev = pq_.read_table(os.path.join(SF, "events.parquet"),
                        columns=["value"]).to_pandas()
    tier = np.where(ev["value"] < 20.0, "low",
                    np.where(ev["value"] < 80.0, "mid", "high"))
    from ocr_ray.money import cents_np

    ev = ev.assign(tier=tier, value_c=cents_np(ev["value"].to_numpy()))
    want = ev.groupby("tier", as_index=False).agg(
        n=("value_c", "size"), value_c=("value_c", "sum")
    )
    want["sum_value"] = want["value_c"] / 100.0
    want = want[["tier", "n", "sum_value"]].sort_values("tier").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_rolling_user_sum_matches_pandas(ray_session):
    """Hash-bucketed segment-cumsum == pandas groupby().cumsum() brute."""
    import pyarrow.parquet as pq_

    from ocr_ray.pipelines.streaming import rolling_user_sum

    got = rolling_user_sum(SF)
    ev = pq_.read_table(os.path.join(SF, "events.parquet"),
                        columns=["event_id", "user_id", "ts", "value"]).to_pandas()
    ev["value_c"] = np.round(ev["value"] * 100).astype(np.int64)
    ev = ev.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    ev["running_sum"] = ev.groupby("user_id")["value_c"].cumsum() / 100.0
    want = ev.sort_values("event_id")[["event_id", "user_id", "running_sum"]].reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_top_events_per_user_matches_pandas(ray_session):
    """Partial+final grouped top-N == pandas rank brute (ties by event_id)."""
    import pyarrow.parquet as pq_

    from ocr_ray.pipelines.streaming import top_events_per_user

    got = top_events_per_user(SF)
    ev = pq_.read_table(os.path.join(SF, "events.parquet"),
                        columns=["event_id", "user_id", "value"]).to_pandas()
    ev = ev.sort_values(["user_id", "value", "event_id"],
                        ascending=[True, False, True], kind="mergesort")
    ev["rank"] = ev.groupby("user_id").cumcount() + 1
    want = ev[ev["rank"] <= 3].sort_values(["user_id", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got, want[["event_id", "user_id", "value", "rank"]], check_dtype=False
    )


def test_cluster_pairs_dataset_long_chain_pointer_doubling(ray_session):
    """A 120-node chain converges within 10 rounds only via pointer
    doubling (plain min-propagation needs ~120); also guards the loud
    non-convergence contract — the old code returned wrong labels
    silently when the iteration cap was hit."""
    import ray.data as rd

    from ocr_ray.functions.dedup import cluster_pairs_dataset

    n = 120
    pairs = pd.DataFrame(
        {"doc_a": list(range(n - 1)), "doc_b": list(range(1, n))}
    )
    got = (
        cluster_pairs_dataset(rd.from_pandas(pairs), max_iters=10)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(got) == n
    assert (got["cluster_id"] == 0).all()


def test_order_lineitem_revenue(ray_session):
    from ocr_ray.pipelines.joins import order_lineitem_revenue

    got = order_lineitem_revenue(SF)
    li = pq.read_table(os.path.join(SF, "lineitem.parquet")).to_pandas()
    orders = pq.read_table(os.path.join(SF, "orders.parquet")).to_pandas()
    li["rev_c4"] = (
        np.round(li.l_extendedprice * 100).astype(np.int64)
        * (100 - np.round(li.l_discount * 100).astype(np.int64))
    )
    per_order = li.groupby("l_orderkey", as_index=False)["rev_c4"].sum()
    j = per_order.merge(orders, left_on="l_orderkey", right_on="o_orderkey")
    exp = (
        j.groupby("o_orderstatus")
        .agg(n_orders=("l_orderkey", "size"), revenue=("rev_c4", lambda v: v.sum() / 10000.0))
        .reset_index()
        .sort_values("o_orderstatus")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_lag_delta_matches_pandas(ray_session):
    from ocr_ray.pipelines.streaming import lag_delta

    got = lag_delta(SF)
    ev = _events().sort_values(["user_id", "ts", "event_id"])
    us = ev["ts"].astype("datetime64[us]").astype(np.int64)
    exp = (us - us.groupby(ev["user_id"]).shift(1)).fillna(-1).astype(np.int64)
    exp = pd.DataFrame(
        {"event_id": ev["event_id"], "user_id": ev["user_id"], "delta_us": exp}
    ).sort_values("event_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_user_value_median_matches_pandas(ray_session):
    from ocr_ray.pipelines.streaming import user_value_median

    got = user_value_median(SF)
    rows = []
    for uid, g in _events().groupby("user_id"):
        v = np.sort(g["value"].to_numpy())
        # quantile_disc(0.5): first element with cume_dist >= 0.5
        rows.append((uid, len(v), v[int(np.ceil(0.5 * len(v))) - 1]))
    exp = pd.DataFrame(rows, columns=["user_id", "n_events", "median_value"])
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_user_mode_type_matches_pandas(ray_session):
    from ocr_ray.pipelines.streaming import user_mode_type

    got = user_mode_type(SF)
    cnt = (
        _events().groupby(["user_id", "event_type"]).size().reset_index(name="n")
    )
    # argmax by (count desc, type asc)
    cnt = cnt.sort_values(
        ["user_id", "n", "event_type"], ascending=[True, False, True]
    )
    exp = cnt.groupby("user_id").head(1).rename(columns={"event_type": "top_type"})
    exp = exp[["user_id", "top_type", "n"]].reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_orders_above_cust_avg_matches_pandas(ray_session):
    from ocr_ray.pipelines.joins import orders_above_cust_avg

    got = orders_above_cust_avg(SF)
    od = pq.read_table(os.path.join(SF, "orders.parquet")).to_pandas()
    c = np.round(od["o_totalprice"].to_numpy() * 100).astype(np.int64)
    od = od.assign(price_c=c)
    g = od.groupby("o_custkey")["price_c"]
    keep = od[od["price_c"] * g.transform("size") > g.transform("sum")]
    exp = keep[["o_orderkey", "o_custkey", "o_totalprice"]].sort_values(
        "o_orderkey"
    ).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_docs_jsonl_source_roundtrip(ray_session, tmp_path):
    """JSONL round trip must preserve doc ids and text exactly."""
    from ocr_ray.pipelines.relational import docs_jsonl_source

    got = docs_jsonl_source(SF)
    docs = pq.read_table(os.path.join(SF, "documents.parquet")).to_pandas()
    exp = (
        docs.assign(len=docs["text"].str.len())
        .groupby("lang")
        .agg(n_docs=("doc_id", "size"), sum_ids=("doc_id", "sum"), sum_len=("len", "sum"))
        .reset_index()
        .sort_values("lang")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_cust_order_counts_left_join_zero_path(ray_session, tmp_path):
    """The synthetic tables give every customer at least one order, so
    this pins the LEFT semantics on a corpus where a third of the
    customers are orderless."""
    import pyarrow as pa
    import pyarrow.parquet as pqw

    from ocr_ray.pipelines.joins import cust_order_counts

    cust = pa.table({"c_custkey": list(range(30))})
    # customers 0,3,6,... get no orders
    okeys = [c for c in range(30) if c % 3][:]
    orders = pa.table({"o_custkey": okeys * 2})
    pqw.write_table(cust, str(tmp_path / "customer.parquet"))
    pqw.write_table(orders, str(tmp_path / "orders.parquet"))

    got = cust_order_counts(str(tmp_path))
    assert len(got) == 30
    exp = {c: (0 if c % 3 == 0 else 2) for c in range(30)}
    assert dict(zip(got["c_custkey"], got["n_orders"])) == exp
    assert got["n_orders"].dtype == np.int64


def test_user_first_last_matches_pandas(ray_session):
    from ocr_ray.pipelines.streaming import user_first_last

    got = user_first_last(SF)
    ev = _events().sort_values(["user_id", "ts", "event_id"])
    first = ev.groupby("user_id").first()
    last = ev.groupby("user_id").last()
    exp = pd.DataFrame(
        {"user_id": first.index,
         "first_type": first["event_type"].to_numpy(),
         "first_ts": first["ts"].to_numpy(),
         "last_type": last["event_type"].to_numpy(),
         "last_ts": last["ts"].to_numpy()}
    ).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_events_csv_source_float_roundtrip(ray_session):
    """The CSV source path must round-trip the DOUBLE value column
    bit-exactly (arrow CSV writer emits shortest-round-trip doubles)."""
    import ray.data as rd

    from ocr_ray.pipelines.relational import _events_csv_dir

    back = (
        rd.read_csv(_events_csv_dir(SF)).to_pandas()
        .sort_values("event_id").reset_index(drop=True)
    )
    orig = (
        pq.read_table(os.path.join(SF, "events.parquet"),
                      columns=["event_id", "event_type", "value"]).to_pandas()
        .sort_values("event_id").reset_index(drop=True)
    )
    assert np.array_equal(back["value"].to_numpy(), orig["value"].to_numpy())
    assert back["event_type"].tolist() == orig["event_type"].tolist()


def test_quantiles_cont_matches_numpy(ray_session):
    from ocr_ray.pipelines.relational import events_value_quantiles_cont

    got = events_value_quantiles_cont(SF)
    ev = _events()
    for _, row in got.iterrows():
        v = np.sort(ev.loc[ev["event_type"] == row["event_type"], "value"].to_numpy())
        for q, col in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")]:
            pos = q * (len(v) - 1)
            lo, hi = int(np.floor(pos)), int(np.ceil(pos))
            frac = pos - lo
            assert row[col] == v[lo] * (1 - frac) + v[hi] * frac


def test_rolling_range_sum_peer_semantics(ray_session, tmp_path):
    """RANGE CURRENT ROW includes ts-peers: equal-ts rows of one user all
    get the peer-group total; rows just past the 1h boundary drop out."""
    import pyarrow as pa
    import pyarrow.parquet as pqw

    from ocr_ray.pipelines.streaming import rolling_range_sum

    base = np.datetime64("2024-01-01T00:00:00", "us")
    h = np.timedelta64(3600, "s")
    rows = {
        "event_id": [1, 2, 3, 4, 5, 6],
        "user_id": [7, 7, 7, 7, 7, 9],
        "ts": [base, base + h // 2, base + h // 2,           # peers at +30m
               base + h + np.timedelta64(1, "us"),            # 0 drops out
               base + 3 * h, base],
        "value": [1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
    }
    pqw.write_table(pa.table(rows), str(tmp_path / "events.parquet"))
    got = rolling_range_sum(str(tmp_path))
    want = {1: 1.0, 2: 7.0, 3: 7.0, 4: 14.0, 5: 16.0, 6: 32.0}
    assert dict(zip(got["event_id"], got["window_sum"])) == want


def test_moving_avg_matches_pandas(ray_session):
    from ocr_ray.pipelines.streaming import moving_avg

    got = moving_avg(SF)
    ev = _events().sort_values(["user_id", "ts", "event_id"])
    c = np.round(ev["value"].to_numpy() * 100).astype(np.int64)
    ev = ev.assign(c=c)
    r = ev.groupby("user_id")["c"].rolling(3, min_periods=1)
    win = r.sum().reset_index(level=0, drop=True)
    k = r.count().reset_index(level=0, drop=True)
    exp = pd.DataFrame(
        {"event_id": ev["event_id"], "user_id": ev["user_id"],
         "moving_avg": win / k / 100.0}
    ).sort_values("event_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_user_type_count_matches_pandas(ray_session):
    from ocr_ray.pipelines.relational import events_user_type_count

    got = events_user_type_count(SF)
    ev = _events()
    exp = ev.groupby("user_id").agg(
        n_types=("event_type", "nunique"), n_events=("event_type", "size")
    ).reset_index()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def _write_events(tmp_path, name, ev):
    import pyarrow as pa
    import pyarrow.parquet as pq_

    d = str(tmp_path / name)
    os.makedirs(d, exist_ok=True)
    pq_.write_table(
        pa.Table.from_pandas(ev, preserve_index=False),
        os.path.join(d, "events.parquet"),
    )
    return d


def test_band_pair_counts_matches_brute(ray_session, tmp_path):
    """Band self-join == O(n^2) brute force, including duplicate same-user
    timestamps (equal-ts pairs must NOT count: condition is ts1 < ts2)."""
    from ocr_ray.pipelines.streaming import BAND_W_HOURS, band_pair_counts

    rng = np.random.RandomState(7)
    n = 300
    ev = pd.DataFrame(
        {"event_id": np.arange(n, dtype=np.int64),
         "user_id": rng.randint(0, 12, size=n).astype(np.int64),
         # coarse seconds grid -> plenty of same-user duplicate ts
         "ts": pd.Timestamp("2024-01-01")
               + pd.to_timedelta(rng.randint(0, 40, size=n) * 3600 * 6, unit="s")}
    )
    got = band_pair_counts(_write_events(tmp_path, "band", ev))
    w = np.timedelta64(BAND_W_HOURS * 3600, "s")
    want = []
    for uid, g in ev.groupby("user_id"):
        ts = g["ts"].to_numpy()
        cnt = sum(
            int(((ts > t) & (ts <= t + w)).sum()) for t in ts
        )
        want.append((uid, cnt))
    want = pd.DataFrame(want, columns=["user_id", "n_pairs"])
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_user_type_entropy_matches_brute(ray_session, tmp_path):
    from ocr_ray.pipelines.streaming import user_type_entropy

    rng = np.random.RandomState(11)
    n = 500
    types = np.array(["click", "error", "purchase", "signup", "view"])
    ev = pd.DataFrame(
        {"user_id": rng.randint(0, 30, size=n).astype(np.int64),
         "event_type": types[rng.randint(0, 5, size=n)]}
    )
    # one single-type user: entropy must be exactly 0
    ev.loc[ev.user_id == 0, "event_type"] = "view"
    got = user_type_entropy(_write_events(tmp_path, "ent", ev))
    want = []
    for uid, g in ev.groupby("user_id"):
        c = g["event_type"].value_counts().sort_index().to_numpy(float)
        h = np.log(c.sum()) - float((c * np.log(c)).sum()) / c.sum()
        want.append((uid, np.round(h, 6)))
    want = pd.DataFrame(want, columns=["user_id", "entropy"])
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert got.loc[got.user_id == 0, "entropy"].item() == 0.0


def test_user_event_path_ordered_with_ts_ties(ray_session, tmp_path):
    """Path order is (ts, event_id) — equal timestamps break by event_id."""
    from ocr_ray.pipelines.streaming import user_event_path

    t0 = pd.Timestamp("2024-01-01")
    ev = pd.DataFrame(
        {"event_id": np.array([5, 2, 9, 1, 7], dtype=np.int64),
         "user_id": np.array([1, 1, 1, 2, 2], dtype=np.int64),
         "ts": [t0, t0, t0 + pd.Timedelta("1h"), t0, t0],
         "event_type": ["view", "click", "purchase", "signup", "error"]}
    )
    got = user_event_path(_write_events(tmp_path, "path", ev))
    want = pd.DataFrame(
        {"user_id": np.array([1, 2], dtype=np.int64),
         "path": ["click>view>purchase", "signup>error"],
         "n_steps": np.array([3, 2], dtype=np.int64)}
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_funnel_counts_matches_brute(ray_session, tmp_path):
    """Funnel stage booleans vs brute force, covering click-before-signup,
    missing steps, and purchase-before-click orderings."""
    from ocr_ray.pipelines.streaming import funnel_counts

    rng = np.random.RandomState(13)
    n = 600
    types = np.array(["signup", "click", "purchase", "view", "error"])
    ev = pd.DataFrame(
        {"event_id": np.arange(n, dtype=np.int64),
         "user_id": rng.randint(0, 40, size=n).astype(np.int64),
         "ts": pd.Timestamp("2024-01-01")
               + pd.to_timedelta(rng.randint(0, 500_000, size=n), unit="s"),
         "event_type": types[rng.randint(0, 5, size=n)]}
    )
    got = funnel_counts(_write_events(tmp_path, "funnel", ev))
    n0 = n1 = n2 = 0
    for _, g in ev.groupby("user_id"):
        t0 = g.loc[g.event_type == "signup", "ts"].min()
        t1 = g.loc[g.event_type == "click", "ts"].min()
        t2 = g.loc[g.event_type == "purchase", "ts"].min()
        if pd.notna(t0):
            n0 += 1
            if pd.notna(t1) and t1 > t0:
                n1 += 1
                if pd.notna(t2) and t2 > t1:
                    n2 += 1
    assert got.iloc[0].tolist() == [n0, n1, n2]


def test_new_users_daily_matches_brute(ray_session, tmp_path):
    from ocr_ray.pipelines.streaming import new_users_daily

    rng = np.random.RandomState(17)
    n = 400
    ev = pd.DataFrame(
        {"user_id": rng.randint(0, 60, size=n).astype(np.int64),
         "ts": pd.Timestamp("2024-03-01")
               + pd.to_timedelta(rng.randint(0, 20 * 86_400, size=n), unit="s")}
    )
    got = new_users_daily(_write_events(tmp_path, "newu", ev))
    first = ev.groupby("user_id")["ts"].min().dt.strftime("%Y-%m-%d")
    want = first.value_counts().sort_index()
    assert got["day"].tolist() == want.index.tolist()
    assert got["n_new"].tolist() == want.tolist()
    assert got["cum_users"].tolist() == want.cumsum().tolist()
    assert got["cum_users"].iloc[-1] == ev["user_id"].nunique()


def test_embedding_dim_stats_matches_numpy(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.functions.similarity import embedding_dim_stats

    rng = np.random.RandomState(19)
    mat = rng.standard_normal((200, 16)).astype(np.float32)
    t = pa.Table.from_pydict(
        {"embedding": pa.array(list(mat), pa.list_(pa.float32()))}
    )
    got = embedding_dim_stats(rd.from_arrow(t).repartition(5))
    np.testing.assert_array_equal(got["dim"], np.arange(16))
    np.testing.assert_allclose(got["vmin"], mat.min(axis=0).astype(np.float64),
                               rtol=0, atol=0)
    np.testing.assert_allclose(got["vmax"], mat.max(axis=0).astype(np.float64),
                               rtol=0, atol=0)
    assert (got["n"] == 200).all()


def test_users_click_purchase_outer_both_orphan_sides(ray_session, tmp_path):
    """FULL OUTER: click-only users, purchase-only users, and both-side
    users all present with exact counts and int64 zero-fill."""
    from ocr_ray.pipelines.relational import (
        OUTER_VALUE_MIN,
        users_click_purchase_outer,
    )

    hi = OUTER_VALUE_MIN + 10.0
    rows = [
        # user 1: big clicks only; user 2: big purchases only;
        # user 3: both; user 4: only low-value events (absent entirely)
        (1, "click", hi), (1, "click", hi),
        (2, "purchase", hi),
        (3, "click", hi), (3, "purchase", hi), (3, "purchase", hi),
        (4, "click", OUTER_VALUE_MIN - 1.0), (4, "purchase", 1.0),
    ]
    ev = pd.DataFrame(
        {"user_id": np.array([r[0] for r in rows], dtype=np.int64),
         "event_type": [r[1] for r in rows],
         "value": [r[2] for r in rows],
         "ts": pd.Timestamp("2024-01-01")}
    )
    got = users_click_purchase_outer(_write_events(tmp_path, "outer", ev))
    want = pd.DataFrame(
        {"user_id": np.array([1, 2, 3], dtype=np.int64),
         "n_clicks": np.array([2, 0, 1], dtype=np.int64),
         "n_purchases": np.array([0, 1, 2], dtype=np.int64)}
    )
    pd.testing.assert_frame_equal(got, want)


def test_events_hive_source_layout_and_parity(ray_session, tmp_path, monkeypatch):
    """Partitioned rewrite produces one event_type=<v>/ dir per type and
    the pruned read of a single partition matches the pandas brute."""
    import ocr_ray.pipelines.relational as R

    rng = np.random.RandomState(23)
    n = 300
    types = np.array(["click", "purchase", "view"])
    ev = pd.DataFrame(
        {"user_id": rng.randint(0, 10, size=n).astype(np.int64),
         "event_type": types[rng.randint(0, 3, size=n)],
         "ts": pd.Timestamp("2024-01-01")
               + pd.to_timedelta(rng.randint(0, 5 * 86_400, size=n), unit="s"),
         "value": np.round(rng.uniform(0.5, 30.0, size=n), 2)}
    )
    d = _write_events(tmp_path, "hive", ev)
    monkeypatch.setattr(
        R, "_events_hive_dir", lambda sf: _hive_build(R, sf, tmp_path)
    )
    got = R.events_hive_source(d)
    p = ev[ev.event_type == "purchase"].copy()
    p["day"] = p["ts"].dt.strftime("%Y-%m-%d")
    p["value_c"] = np.where(p["value"] >= 0, np.floor(p["value"] * 100 + 0.5),
                            np.ceil(p["value"] * 100 - 0.5)).astype(np.int64)
    want = (
        p.groupby("day", as_index=False)
        .agg(n=("day", "size"), value_c=("value_c", "sum"))
        .assign(revenue=lambda x: x.value_c / 100.0)[["day", "n", "revenue"]]
        .sort_values("day").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # layout: one hive dir per type, nothing else
    import os as _os

    hive_root = _hive_build(R, d, tmp_path)
    assert sorted(_os.listdir(hive_root)) == [
        "event_type=click", "event_type=purchase", "event_type=view"
    ]


def _hive_build(R, sf_dir, tmp_path):
    """Test-local hive dir (avoids the shared /tmp cache key)."""
    import os as _os

    import ray.data as rd

    out = str(tmp_path / "hive_out")
    if _os.path.isdir(out) and _os.listdir(out):
        return out
    rd.read_parquet(_os.path.join(sf_dir, "events.parquet"),
                    columns=["event_type", "ts", "value"]).write_parquet(
        out, partition_cols=["event_type"]
    )
    return out


def test_user_value_mad_matches_brute(ray_session, tmp_path):
    """Two-level grouped quantile vs brute force, including even/odd
    segment sizes and duplicate values."""
    from ocr_ray.pipelines.streaming import user_value_mad

    rng = np.random.RandomState(29)
    n = 500
    ev = pd.DataFrame(
        {"user_id": rng.randint(0, 25, size=n).astype(np.int64),
         "value": np.round(rng.uniform(0, 50, size=n), 1),  # many duplicates
         "ts": pd.Timestamp("2024-01-01")}
    )
    got = user_value_mad(_write_events(tmp_path, "mad", ev))

    def qdisc(a):
        a = np.sort(a)
        return a[int(np.ceil(len(a) / 2)) - 1]

    want = []
    for uid, g in ev.groupby("user_id"):
        v = g["value"].to_numpy(np.float64)
        med = qdisc(v)
        want.append((uid, med, qdisc(np.abs(v - med))))
    want = pd.DataFrame(want, columns=["user_id", "median_value", "mad"])
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_cogroup_bucket_join_outer_preserves_both_orphan_sides(ray_session):
    import ray.data as rd

    from ocr_ray.pipelines.joins import bucket_hash_join

    left = pd.DataFrame({"k": np.array([1, 2, 2, 3], dtype=np.int64),
                         "a": np.array([10, 20, 21, 30], dtype=np.int64)})
    right = pd.DataFrame({"k": np.array([2, 4], dtype=np.int64),
                          "b": np.array([200, 400], dtype=np.int64)})
    got = (
        bucket_hash_join(rd.from_pandas(left), rd.from_pandas(right),
                         on="k", n_buckets=4, how="outer")
        .to_pandas().sort_values(["k", "a"]).reset_index(drop=True)
    )
    exp = left.merge(right, on="k", how="outer").sort_values(
        ["k", "a"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.astype({"a": "float64", "b": "float64"}),
        exp.astype({"a": "float64", "b": "float64"}),
        check_dtype=False,
    )
    assert set(got["k"]) == {1, 2, 3, 4}  # both orphan sides present


def test_salted_join_skew_parity(ray_session):
    """Salted join == plain pandas merge on a corpus with one mega-key,
    and hot-key detection finds exactly the skewed keys."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ocr_ray.pipelines.joins import detect_hot_keys, salted_bucket_join

    rng = np.random.default_rng(5)
    # left: 50k rows of key 7 (hot) + 20k rows over 1000 cold keys
    lk = np.concatenate(
        [np.full(50_000, 7), rng.integers(100, 1100, 20_000)]
    )
    left = pd.DataFrame({"k": lk, "lv": np.arange(len(lk), dtype=np.int64)})
    # right: every key once, some keys twice (multiplicity through the join)
    rk = np.concatenate([np.arange(0, 1100), np.arange(0, 1100, 7)])
    right = pd.DataFrame({"k": rk, "rv": np.arange(len(rk), dtype=np.int64)})

    lds = rd.from_pandas(left).repartition(8)
    rds = rd.from_pandas(right).repartition(4)

    hot = detect_hot_keys(lds, "k", threshold=10_000)
    assert hot == [7]

    got = (
        salted_bucket_join(lds, rds, on="k", hot_keys=hot, salt=8)
        .to_pandas()
        .sort_values(["k", "lv", "rv"])
        .reset_index(drop=True)
    )
    exp = (
        left.merge(right, on="k", how="inner")
        .sort_values(["k", "lv", "rv"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[["k", "lv", "rv"]], exp[["k", "lv", "rv"]], check_dtype=False
    )


def test_salted_join_no_hot_keys_degenerates_to_plain(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ocr_ray.pipelines.joins import salted_bucket_join

    left = pd.DataFrame({"k": np.arange(200) % 50, "lv": np.arange(200)})
    right = pd.DataFrame({"k": np.arange(50), "rv": np.arange(50) * 10})
    got = (
        salted_bucket_join(
            rd.from_pandas(left).repartition(4),
            rd.from_pandas(right).repartition(2),
            on="k", hot_keys=[], salt=4,
        )
        .to_pandas()
        .sort_values(["k", "lv"])
        .reset_index(drop=True)
    )
    exp = left.merge(right, on="k").sort_values(["k", "lv"]).reset_index(
        drop=True
    )
    pd.testing.assert_frame_equal(
        got[["k", "lv", "rv"]], exp[["k", "lv", "rv"]], check_dtype=False
    )


def test_native_join_queries_match_oracle(ray_session):
    """nation_revenue and segment_revenue_native once ran on Ray's native
    Dataset.join, whose hash-shuffle aggregators reserve more memory
    than a 4-CPU session has and so never start; on the bucket join both
    finish and match their DuckDB twins order-insensitively (the
    tools/check_queries.py comparison)."""
    import sys

    import duckdb

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if repo not in sys.path:
        sys.path.insert(0, repo)
    import __ray_entry__ as entry

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        df = df[sorted(df.columns)]
        df = df.astype({c: float for c in df.columns
                        if np.issubdtype(df[c].dtype, np.number)})
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    con = duckdb.connect()
    for t in ("region", "nation", "customer", "orders", "lineitem"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{SF}/{t}.parquet')")
    qs, oracles = entry.queries(), entry.oracle_sql()
    for name in ("nation_revenue", "segment_revenue_native"):
        got = canon(qs[name](SF))
        want = canon(con.sql(oracles[name]).df())
        pd.testing.assert_frame_equal(got, want, check_exact=True)


def test_bucket_hash_join_explicit_dtypes_skip_probe(ray_session):
    """Passing left_dtypes/right_dtypes must produce the identical result
    (columns, dtypes, rows) as the schema-probe path — the probe-free
    variant exists so shuffle-bearing inputs can stream un-materialized."""
    import ray.data as rd

    from ocr_ray.pipelines.joins import bucket_hash_join

    left = pd.DataFrame({"k": [1, 2, 2, 3, 5], "a": [7, 8, 9, 10, 11]})
    right = pd.DataFrame({"k": [2, 3, 3, 4], "b": [10, 20, 30, 40]})
    probe = (
        bucket_hash_join(rd.from_pandas(left), rd.from_pandas(right),
                         on="k", n_buckets=4)
        .to_pandas().sort_values(["k", "a", "b"]).reset_index(drop=True)
    )
    explicit = (
        bucket_hash_join(
            rd.from_pandas(left), rd.from_pandas(right), on="k", n_buckets=4,
            left_dtypes={"k": "int64", "a": "int64"},
            right_dtypes={"k": "int64", "b": "int64"},
        )
        .to_pandas().sort_values(["k", "a", "b"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(probe, explicit)


# --- EWMA ------------------------------------------------------------------


def test_ewma_matches_brute_recursion(ray_session, tmp_path):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_ray.pipelines.streaming import ewma_values

    rng = np.random.RandomState(59)
    n = 400
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.randint(0, 12, size=n).astype(np.int64),
        "ts": pd.to_datetime("2024-01-01")
        + pd.to_timedelta(rng.randint(0, 10**6, size=n), unit="s"),
        "value": np.round(rng.uniform(-50, 200, size=n), 2),
        "event_type": ["x"] * n,
        "props": ["{}"] * n,
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "events.parquet"))
    out = ewma_values(str(tmp_path))

    # brute sequential replay in the exact same op order
    exp = {}
    for _, r in df.sort_values(["user_id", "ts", "event_id"]).iterrows():
        u = r["user_id"]
        v = float(r["value"])
        e = v if u not in exp or exp[u] is None else 0.3 * v + 0.7 * exp[u]
        exp[u] = e
        exp[("row", int(r["event_id"]))] = e
    got = out.set_index("event_id")["ewma"]
    for eid in df["event_id"]:
        x = exp[("row", int(eid))]
        want = float(np.sign(x) * np.floor(abs(x) * 1e4 + 0.5) / 1e4)
        assert got[eid] == want, eid


def test_ewma_midpoint_rounds_half_away():
    # 0.15 * 1 + 0 ... craft a value whose double sits exactly on a
    # 4-dp midpoint: 0.00005 scaled -> floor(0.5+0.5)=1 -> 0.0001
    import numpy as np

    x = np.float64(0.00005)
    r4 = np.sign(x) * np.floor(np.abs(x) * 1e4 + 0.5) / 1e4
    assert r4 == 0.0001  # np.round would give 0.0 (half-even)
    assert np.round(x, 4) == 0.0


# --- degenerate inputs across the streaming family -------------------------


def _entry():
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if repo not in sys.path:
        sys.path.insert(0, repo)
    import __ray_entry__

    return __ray_entry__


_STREAMING_QUERIES = sorted(
    name for name, fn in _entry().queries().items()
    if fn.__module__ == "ocr_ray.pipelines.streaming"
)


@pytest.fixture(scope="module")
def degenerate_events(tmp_path_factory):
    """sf0.001's events cut to 0 rows, to its first row, and to the rows
    of its busiest user, one directory each."""
    import pyarrow.compute as pc

    ev = pq.read_table(os.path.join(SF, "events.parquet"))
    top_user = pc.mode(ev["user_id"])[0]["mode"]
    cuts = {"empty": ev.slice(0, 0), "one_row": ev.slice(0, 1),
            "one_user": ev.filter(pc.equal(ev["user_id"], top_user))}
    dirs = {}
    for kind, t in cuts.items():
        d = tmp_path_factory.mktemp(kind)
        pq.write_table(t, str(d / "events.parquet"))
        dirs[kind] = str(d)
    return dirs


@pytest.mark.parametrize("kind", ["empty", "one_row", "one_user"])
@pytest.mark.parametrize("name", _STREAMING_QUERIES)
def test_streaming_degenerate_matches_oracle(ray_session, degenerate_events,
                                             name, kind):
    """Every streaming query answers a 0-row, a 1-row and a one-user
    events table exactly as its DuckDB twin does: row count, columns,
    dtypes and values (the tools/check_queries.py comparison)."""
    import duckdb

    from tools.check_queries import compare, to_pandas

    sf_dir = degenerate_events[kind]
    entry = _entry()
    con = duckdb.connect()
    con.sql("CREATE VIEW events AS SELECT * FROM "
            f"read_parquet('{sf_dir}/events.parquet')")
    want = con.sql(entry.oracle_sql()[name]).df()
    got = to_pandas(entry.queries()[name](sf_dir))
    assert compare(got, want) == []

"""Stream-shaped operators over the ordered ``events`` log (SURVEY.md
§2.10: the reference is finite-batch; these are the engine's windowed
extensions, built the Ray-Data way — partition by key, order by ts within
partition, window inside map_groups).

That sentence is written once, as the engine's shared
:func:`ocr_ray.stages.partial_agg.bucket_pass` keyed on user_id: users
hashed into 64 buckets, one exchange, and one Arrow kernel per bucket
that sees the bucket stably sorted by its window order and returns
columns cast to a declared schema. Each per-user query is thus one
``OVER (PARTITION BY user_id ORDER BY ...)`` operator with an exact SQL
twin.

Ordering assumption (stated per the guide): events are processed per
``user_id`` group sorted by ``ts``; output is independent of input block
order. Exact-cents math keeps the SQL twins bit-identical.

Result shape: every query but the actor-based ``sessionize_incremental``
ends in ``collect_table(ds, schema).to_pandas()`` — the driver reads the
non-empty blocks' declared columns, or the schema's empty table when no
block holds rows, so a 0-row input answers with a typed empty frame. The windowed aggregation itself is a
Dataset until that call, and a production consumer sinks the Dataset
instead (window-aggregate outputs are corpus-scaled at 10^12 events).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..money import cents as _cents

import ray.data as rd

from ..pqread import read_parquet as _read_parquet

from ..stages.carry_scan import runs
from ..stages.partial_agg import bucket_pass, collect_table

__all__ = [
    "tumbling_window",
    "hopping_window",
    "session_windows",
    "asof_last_login",
    "sessionize_incremental",
    "rolling_user_sum",
    "top_events_per_user",
    "lag_delta",
    "user_value_median",
    "user_mode_type",
    "user_first_last",
    "rolling_range_sum",
    "moving_avg",
    "transition_counts",
    "band_pair_counts",
    "user_type_entropy",
    "user_event_path",
    "funnel_counts",
    "new_users_daily",
    "user_value_mad",
    "retention_cohorts",
    "window_distinct_users",
    "first_touch_attribution",
    "ewma_values",
]

SESSION_GAP_MIN = 30
SESSION_GAP_US = SESSION_GAP_MIN * 60 * 1_000_000

# the (ts, event_id) window order within each user
_BY_TIME = [("user_id", "ascending"), ("ts", "ascending"),
            ("event_id", "ascending")]


def seg_searchsorted(seg_id: np.ndarray, ts: np.ndarray,
                     targets: np.ndarray, side: str) -> np.ndarray:
    """searchsorted of targets[i] within its own (sorted) segment,
    vectorized across ALL segments via one lexsort — the shared kernel
    behind every RANGE-frame / band-window operator here. ``seg_id`` must
    be nondecreasing and ``ts`` sorted within each segment."""
    n = len(ts)
    arr = np.concatenate([ts, targets])
    seg = np.concatenate([seg_id, seg_id])
    is_target = np.concatenate(
        [np.zeros(n, dtype=np.int8), np.ones(n, dtype=np.int8)]
    )
    # side='left': target sorts BEFORE equal originals; 'right': after
    tag = 1 - is_target if side == "left" else is_target
    order = np.lexsort((tag, arr, seg))
    n_orig_before = np.cumsum(1 - is_target[order]) - (1 - is_target[order])
    pos_in_merge = np.empty(2 * n, dtype=np.int64)
    pos_in_merge[order] = np.arange(2 * n)
    # segment-relative: subtract originals before the segment start
    seg_starts = np.flatnonzero(
        np.concatenate([[True], seg_id[1:] != seg_id[:-1]])
    )
    return (n_orig_before[pos_in_merge[n:]]
            - np.repeat(seg_starts, np.diff(np.append(seg_starts, n))))


def _events(sf_dir: str, columns: list[str]) -> rd.Dataset:
    return _read_parquet(os.path.join(sf_dir, "events.parquet"), columns=columns)


def _us(col) -> np.ndarray:
    """A timestamp column as int64 microseconds."""
    return col.cast(pa.timestamp("us")).cast(pa.int64()).to_numpy()


def _window_sums(ds: rd.Dataset, window_type: pa.DataType) -> pd.DataFrame:
    """Event count ``n`` and exact-cents ``sum_value`` per (user_id,
    window_start) over ``ds``'s (user_id, window_start, value_c) rows,
    sorted by (user_id, window_start).

    Each block first shrinks to per-(user, window) partial sums (sums and
    counts are additive); the user-hash bucket pass then adds up each
    (user, window) run of its sorted partials."""
    keys = ["user_id", "window_start"]
    schema = pa.schema([("user_id", pa.int64()), ("window_start", window_type),
                        ("n", pa.int64()), ("value_c", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(keys).aggregate([([], "count_all"), ("value_c", "sum")])
        return pa.table({"user_id": g["user_id"],
                         "window_start": g["window_start"],
                         "n": g["count_all"], "value_c": g["value_c_sum"]})

    def fold(t: pa.Table) -> dict:
        starts, _ = runs(t["user_id"].to_numpy(), t["window_start"].to_numpy())
        return {"user_id": t["user_id"].take(starts),
                "window_start": t["window_start"].take(starts),
                "n": np.add.reduceat(t["n"].to_numpy(), starts),
                "value_c": np.add.reduceat(t["value_c"].to_numpy(), starts)}

    agg = collect_table(
        bucket_pass(ds.map_batches(partial, batch_format="pyarrow"),
                    ["user_id"], [(k, "ascending") for k in keys], fold,
                    schema),
        schema,
    ).to_pandas()
    agg["sum_value"] = agg["value_c"] / 100.0
    return agg[["user_id", "window_start", "n", "sum_value"]].sort_values(
        keys
    ).reset_index(drop=True)


def tumbling_window(sf_dir: str) -> pd.DataFrame:
    """Per-user tumbling 1-hour windows: count + exact-cents sum.

    Window key computed vectorized in map_batches; the aggregation is
    :func:`_window_sums` (per-block partial sums, then the user-hash
    bucket pass)."""
    ds = _events(sf_dir, ["user_id", "ts", "value"])

    def widen(t: pa.Table) -> pa.Table:
        hour = pc.strftime(t["ts"], format="%Y-%m-%d %H:00:00")
        value_c = _cents(t["value"])
        return pa.Table.from_arrays(
            [t["user_id"].combine_chunks(), hour, value_c],
            names=["user_id", "window_start", "value_c"],
        )

    return _window_sums(ds.map_batches(widen, batch_format="pyarrow"),
                        pa.string())


HOP_LEN_MIN = 60   # hopping window length
HOP_STEP_MIN = 15  # hop (slide) step — each event lands in LEN/STEP windows


def hopping_window(sf_dir: str) -> pd.DataFrame:
    """Per-user hopping (sliding) 60-minute windows with a 15-minute hop:
    count + exact-cents sum per (user, window_start).

    Ray shape: each event EXPLODES into its LEN/STEP covering windows
    inside map_batches (vectorized: one np.repeat/tile per batch — no
    per-row loop), then :func:`_window_sums` handles the high
    (user, window) cardinality. SQL twin enumerates the same covering
    windows with generate_series."""
    ds = _events(sf_dir, ["user_id", "ts", "value"])
    n_win = HOP_LEN_MIN // HOP_STEP_MIN
    step_us = HOP_STEP_MIN * 60 * 1_000_000

    def explode(t: pa.Table) -> pa.Table:
        us = _us(t["ts"])
        users = t.column("user_id").to_numpy()
        value_c = _cents(t["value"]).to_numpy()
        # latest covering window start, then n_win steps back
        base = (us // step_us) * step_us
        starts = base[:, None] - np.arange(n_win)[None, :] * step_us
        win = starts.reshape(-1)
        out_users = np.repeat(users, n_win)
        out_vals = np.repeat(value_c, n_win)
        return pa.Table.from_arrays(
            [
                pa.array(out_users, pa.int64()),
                pa.array(win.astype("datetime64[us]")),
                pa.array(out_vals, pa.int64()),
            ],
            names=["user_id", "window_start", "value_c"],
        )

    return _window_sums(ds.map_batches(explode, batch_format="pyarrow"),
                        pa.timestamp("us"))


_SESSIONS = pa.schema([("user_id", pa.int64()),
                       ("session_start", pa.timestamp("us")),
                       ("n_events", pa.int64()),
                       ("duration_sec", pa.int64())])


def session_windows(sf_dir: str) -> pd.DataFrame:
    """Session windowing: per user, a new session starts when the gap to
    the previous event exceeds SESSION_GAP_MIN minutes. Emits one row per
    session: (user_id, session_start, n_events, duration_sec).

    Scale shape: the user-hash bucket pass, then sessionize the whole
    bucket in ONE vectorized pass: sorted by (user_id, ts), a session
    break is a user change OR a gap over the threshold, and session rows
    are sliced at the break indices — no per-user loop anywhere."""

    def sessionize(t: pa.Table) -> dict:
        users = t["user_id"].to_numpy()
        us = _us(t["ts"])
        brk = np.ones(len(us), dtype=bool)
        brk[1:] = (users[1:] != users[:-1]) | (us[1:] - us[:-1] > SESSION_GAP_US)
        starts = np.flatnonzero(brk)
        ends = np.append(starts[1:], len(us)) - 1
        return {"user_id": users[starts],
                "session_start": t["ts"].take(starts),
                "n_events": ends - starts + 1,
                "duration_sec": (us[ends] - us[starts]) // 1_000_000}

    res = collect_table(
        bucket_pass(_events(sf_dir, ["user_id", "ts"]),
                    ["user_id"],
                    [("user_id", "ascending"), ("ts", "ascending")],
                      sessionize, _SESSIONS),
        _SESSIONS,
    ).to_pandas()
    return res.sort_values(["user_id", "session_start"]).reset_index(drop=True)


SESSION_ACTORS = 8  # stateful actors of sessionize_incremental, one per user hash


def sessionize_incremental(sf_dir: str) -> pd.DataFrame:
    """Stateful-actor sessionization — the raw-Ray-actor escape hatch the
    guide reserves for semantics map_batches can't express: incremental
    state over an ordered stream.

    Shape: events are streamed in GLOBAL ts order (one ordered pass, as a
    log consumer would see them) to ``SESSION_ACTORS`` stateful actors
    (user_id hash-partitioned). Each actor keeps its users' OPEN sessions
    as in-memory state across feed calls, emits a session only when the
    gap closes it, and flushes remaining state at end-of-stream. Output is
    identical to the batch ``session_windows`` (tested) — the difference
    is execution shape: O(open sessions) state instead of all-events
    materialization per group.

    The driver never touches event data: it submits the sorted Dataset's
    non-empty BLOCK REFS to every actor in order (O(blocks) driver work);
    each actor reads the shared block zero-copy from the object store and
    masks its own user-hash partition. Per-actor calls from one submitter
    are processed in submission order, so every actor sees its users'
    events in global ts order. The actors are killed before returning.
    """
    import ray

    @ray.remote
    class SessionBucket:
        def __init__(self, bucket: int) -> None:
            self.bucket = np.uint64(bucket)
            self.open: dict[int, tuple] = {}  # user -> (start, last, n)
            self.closed: list[tuple] = []     # (user, start, last, n)

        def feed_block(self, t: pa.Table) -> None:
            users = t["user_id"].to_numpy()
            us = _us(t["ts"])
            m = (
                users.astype(np.uint64) * np.uint64(2654435761)
            ) % np.uint64(SESSION_ACTORS) == self.bucket
            for u, ts in zip(users[m].tolist(), us[m].tolist()):
                cur = self.open.get(u)
                if cur is None:
                    self.open[u] = (ts, ts, 1)
                elif ts - cur[1] > SESSION_GAP_US:
                    self.closed.append((u, *cur))
                    self.open[u] = (ts, ts, 1)
                else:
                    self.open[u] = (cur[0], ts, cur[2] + 1)

        def flush(self) -> pa.Table:
            rows = self.closed + [(u, *cur) for u, cur in self.open.items()]
            u, start, last, n = np.array(rows, np.int64).reshape(-1, 4).T
            return pa.table({"user_id": u, "session_start": start,
                             "n_events": n,
                             "duration_sec": (last - start) // 1_000_000},
                            schema=_SESSIONS)

    # materialize after the sort so block refs follow range order; Ray's
    # sort emits schema-less 0-row filler blocks, which hold no events
    ds = _events(sf_dir, ["user_id", "ts"]).sort("ts").materialize()
    refs = [ref for bundle in ds.iter_internal_ref_bundles()
            for ref, meta in bundle.blocks if meta.num_rows]
    actors = [SessionBucket.remote(b) for b in range(SESSION_ACTORS)]
    try:
        ray.get([a.feed_block.remote(ref) for ref in refs for a in actors])
        out = pa.concat_tables(ray.get([a.flush.remote() for a in actors]))
    finally:
        for a in actors:
            ray.kill(a)
    return out.to_pandas().sort_values(
        ["user_id", "session_start"]).reset_index(drop=True)


def rolling_user_sum(sf_dir: str) -> pd.DataFrame:
    """Per-user cumulative (running) exact-cents sum ordered by
    (ts, event_id) — the unbounded-preceding window aggregate
    (``SUM() OVER (PARTITION BY user ORDER BY ts ROWS UNBOUNDED
    PRECEDING)``).

    Scale shape: the user-hash bucket pass -> ONE vectorized pass per
    bucket: np.cumsum over the whole (user, ts, event_id)-sorted bucket,
    per-user segment reset by subtracting each segment's starting offset
    (np.repeat over segment lengths — sign-safe, no per-user loop)."""
    schema = pa.schema([("event_id", pa.int64()), ("user_id", pa.int64()),
                        ("running_c", pa.int64())])

    def roll(t: pa.Table) -> dict:
        v = _cents(t["value"]).to_numpy()
        starts, seg_len = runs(t["user_id"].to_numpy())
        cs = np.cumsum(v)
        offset = np.repeat(cs[starts] - v[starts], seg_len)
        return {"event_id": t["event_id"], "user_id": t["user_id"],
                "running_c": cs - offset}

    res = collect_table(
        bucket_pass(_events(sf_dir, ["event_id", "user_id", "ts", "value"]),
                    ["user_id"], _BY_TIME, roll, schema),
        schema,
    ).to_pandas()
    res["running_sum"] = res["running_c"] / 100.0
    return res[["event_id", "user_id", "running_sum"]].sort_values(
        "event_id"
    ).reset_index(drop=True)


TOP_PER_USER_N = 3


def top_events_per_user(sf_dir: str) -> pd.DataFrame:
    """Grouped top-N: each user's 3 highest-value events (ties by
    event_id) with their rank — the ``row_number() OVER (PARTITION BY
    user ORDER BY value DESC, event_id) <= 3`` shape.

    Scale shape: the shared ``grouped_topn`` stage — a per-BATCH partial
    top-N combiner (only <= N rows per user per block ride the shuffle),
    then the bucket pass's final cut over each user-sorted bucket, ranked
    by run offsets (no per-user map_groups)."""
    from ..stages.partial_agg import grouped_topn

    schema = pa.schema([("event_id", pa.int64()), ("user_id", pa.int64()),
                        ("value", pa.float64())])
    ds = _events(sf_dir, schema.names)
    res = collect_table(
        grouped_topn(ds, "user_id",
                     [("value", "descending"), ("event_id", "ascending")],
                     TOP_PER_USER_N, schema),
        schema.append(pa.field("rank", pa.int64())),
    ).to_pandas()
    return res.sort_values(["user_id", "rank"]).reset_index(drop=True)


def asof_last_login(sf_dir: str) -> pd.DataFrame:
    """As-of (backward) self-join: for every 'click' event, the timestamp
    of that user's most recent earlier-or-equal 'signup' event — the
    session-auth anchor of this corpus. (An earlier revision anchored on
    a 'login' type that does not occur in the test tables, so the oracle
    passed vacuously on all-NULL output; signup events exist for every
    user, making the backward search and its tie rule actually graded.)

    Scale shape: the user-hash bucket pass, then ONE merge rank per
    bucket (:func:`window_bounds`): clicks at (user, ts + 1us) are ranked
    into the user-major signup stream, so the signup just before a
    click's rank is its user's latest signup at or before the click when
    it belongs to the same user.

    Tie rule: a signup sharing the click's exact ts IS a match
    (timestamps are integral microseconds, so ts + 1us is the first
    excluded instant); the SQL twin's RANGE window frame states the same
    rule."""
    schema = pa.schema([("event_id", pa.int64()), ("user_id", pa.int64()),
                        ("ts", pa.timestamp("us")),
                        ("last_login_ts", pa.timestamp("us"))])

    def asof(t: pa.Table) -> dict:
        signups = t.filter(pc.equal(t["event_type"], "signup"))
        clicks = t.filter(pc.equal(t["event_type"], "click"))
        su = signups["user_id"].to_numpy()
        cu = clicks["user_id"].to_numpy()
        _, hi = window_bounds(su, _us(signups["ts"]), cu,
                              _us(clicks["ts"]) + 1, 0)
        last = hi - 1
        found = last >= 0
        found[found] = su[last[found]] == cu[found]
        return {"event_id": clicks["event_id"], "user_id": clicks["user_id"],
                "ts": clicks["ts"],
                "last_login_ts": signups["ts"].take(pa.array(last, mask=~found))}

    res = collect_table(
        bucket_pass(
            _events(sf_dir, ["event_id", "user_id", "ts", "event_type"]),
            ["user_id"], _BY_TIME, asof, schema),
        schema,
    ).to_pandas()
    return res.sort_values("event_id").reset_index(drop=True)


def lag_delta(sf_dir: str) -> pd.DataFrame:
    """Per-event LAG window: microseconds since the same user's previous
    event (-1 for the user's first) — the ``epoch_us(ts) -
    lag(epoch_us(ts)) OVER (PARTITION BY user ORDER BY ts, event_id)``
    shape.

    Scale shape: the user-hash bucket pass, then ONE vectorized pass per
    (user, ts, event_id)-sorted bucket — np.diff over the whole bucket,
    user-boundary rows reset to the -1 sentinel (no per-user loop, no
    per-user map_groups)."""
    schema = pa.schema([("event_id", pa.int64()), ("user_id", pa.int64()),
                        ("delta_us", pa.int64())])

    def lag(t: pa.Table) -> dict:
        us = _us(t["ts"])
        delta = np.full(len(us), -1, dtype=np.int64)
        delta[1:] = us[1:] - us[:-1]
        delta[runs(t["user_id"].to_numpy())[0]] = -1
        return {"event_id": t["event_id"], "user_id": t["user_id"],
                "delta_us": delta}

    return (
        collect_table(
            bucket_pass(_events(sf_dir, ["event_id", "user_id", "ts"]),
                        ["user_id"], _BY_TIME, lag, schema),
            schema,
        )
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )


def transition_counts(sf_dir: str) -> pd.DataFrame:
    """Event-type transition (Markov) matrix: corpus-wide counts of every
    consecutive (prev_type -> next_type) pair within a user's timeline —
    the ``lag(event_type) OVER (PARTITION BY user ORDER BY ts, id)``
    shape feeding a grouped count (user-journey / funnel analysis).

    Scale shape: the lag kernel (user-hash bucket pass, adjacent-row
    shift over each sorted bucket, user-boundary rows masked out), but
    each bucket emits only its |types|^2-row partial count matrix; the
    final merge is over O(buckets * |types|^2) rows — bounded by the type
    vocabulary, independent of corpus size."""
    schema = pa.schema([("prev_type", pa.string()), ("next_type", pa.string()),
                        ("n", pa.int64())])

    def transitions(t: pa.Table) -> dict:
        users = t["user_id"].to_numpy()
        prev = np.flatnonzero(users[1:] == users[:-1])
        g = pa.table(
            {"prev_type": t["event_type"].take(prev),
             "next_type": t["event_type"].take(prev + 1)}
        ).group_by(["prev_type", "next_type"]).aggregate([([], "count_all")])
        return {"prev_type": g["prev_type"], "next_type": g["next_type"],
                "n": g["count_all"]}

    partials = collect_table(  # O(buckets * |types|^2) rows — bounded
        bucket_pass(
            _events(sf_dir, ["event_id", "user_id", "ts", "event_type"]),
            ["user_id"], _BY_TIME, transitions, schema),
        schema,
    ).to_pandas()
    out = partials.groupby(["prev_type", "next_type"], as_index=False).agg(
        n=("n", "sum")
    )
    out["n"] = out["n"].astype(np.int64)
    return out.sort_values(["prev_type", "next_type"]).reset_index(drop=True)


_BY_VALUE = [("user_id", "ascending"), ("value", "ascending")]

_TYPE_KEYS = ["user_id", "event_type"]


def _type_counts(t: pa.Table) -> pa.Table:
    """A block's partial (user_id, event_type) event counts ``n``."""
    g = t.group_by(_TYPE_KEYS).aggregate([([], "count_all")])
    return pa.table({"user_id": g["user_id"], "event_type": g["event_type"],
                     "n": g["count_all"]})


def user_value_median(sf_dir: str) -> pd.DataFrame:
    """Scalable grouped quantile: per-user event count + discrete median
    of ``value`` (``quantile_disc(value, 0.5)`` — the smallest element
    with cume_dist >= 0.5, i.e. index ceil(0.5*n)-1 in sorted order, so
    the result is an actual input element and floats compare exactly).

    Scale shape: per-TYPE quantiles (5 groups) can afford map_groups
    (events_value_quantiles); per-USER cardinality scales with the corpus,
    so this uses the user-hash bucket pass + ONE vectorized pass per
    (user, value)-sorted bucket: per-user segment starts, element pick at
    start + ceil(n/2) - 1."""
    schema = pa.schema([("user_id", pa.int64()), ("n_events", pa.int64()),
                        ("median_value", pa.float64())])

    def median(t: pa.Table) -> dict:
        users = t["user_id"].to_numpy()
        vals = t["value"].to_numpy()
        starts, seg_len = runs(users)
        pick = starts + (seg_len + 1) // 2 - 1
        return {"user_id": users[starts], "n_events": seg_len,
                "median_value": vals[pick]}

    return (
        collect_table(
            bucket_pass(_events(sf_dir, ["user_id", "value"]), ["user_id"],
                        _BY_VALUE, median, schema),
            schema,
        )
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )


def user_mode_type(sf_dir: str) -> pd.DataFrame:
    """Grouped mode (argmax): each user's most frequent event_type, ties
    broken by lexicographically smallest type — the ``row_number() OVER
    (PARTITION BY user ORDER BY cnt DESC, type) = 1`` shape over grouped
    counts.

    Scale shape: ONE user-hash bucket shuffle of per-block (user, type)
    partial counts (the shuffle carries count rows, not events); the
    bucket pass combines the partials and picks each user's top count in
    one stable lexsort (type order breaks ties)."""
    schema = pa.schema([("user_id", pa.int64()), ("top_type", pa.string()),
                        ("n", pa.int64())])

    def mode(t: pa.Table) -> dict:
        users = t["user_id"].to_numpy()
        ut, _ = runs(users, t["event_type"].to_numpy())
        n = np.add.reduceat(t["n"].to_numpy(), ut)  # (user, type) counts
        starts, seg_len = runs(users[ut])
        # stable: within a user, count descending, then type ascending
        best = np.lexsort((-n, np.repeat(np.arange(len(starts)), seg_len)))
        best = best[starts]
        return {"user_id": users[ut][best],
                "top_type": t["event_type"].take(ut[best]), "n": n[best]}

    return (
        collect_table(
            bucket_pass(
                _events(sf_dir, _TYPE_KEYS).map_batches(
                    _type_counts, batch_format="pyarrow"),
                ["user_id"], [(k, "ascending") for k in _TYPE_KEYS], mode,
                schema),
            schema,
        )
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )


def user_first_last(sf_dir: str) -> pd.DataFrame:
    """Per-user first/last event (the ``first_value`` / ``last_value``
    window shape ordered by (ts, event_id)): one row per user with the
    first and last event_type and their timestamps.

    Scale shape: the user-hash bucket pass, ONE vectorized pass per
    (user, ts, event_id)-sorted bucket — per-user segment starts/ends
    gathered with ``take``; no per-user map_groups."""
    schema = pa.schema([("user_id", pa.int64()),
                        ("first_type", pa.string()),
                        ("first_ts", pa.timestamp("us")),
                        ("last_type", pa.string()),
                        ("last_ts", pa.timestamp("us"))])

    def first_last(t: pa.Table) -> dict:
        starts, seg_len = runs(t["user_id"].to_numpy())
        ends = starts + seg_len - 1
        return {"user_id": t["user_id"].take(starts),
                "first_type": t["event_type"].take(starts),
                "first_ts": t["ts"].take(starts),
                "last_type": t["event_type"].take(ends),
                "last_ts": t["ts"].take(ends)}

    return (
        collect_table(
            bucket_pass(
                _events(sf_dir, ["event_id", "user_id", "ts", "event_type"]),
                ["user_id"], _BY_TIME, first_last, schema),
            schema,
        )
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )


ROLLING_RANGE_MIN = 60  # trailing RANGE window length (minutes)


def rolling_range_sum(sf_dir: str) -> pd.DataFrame:
    """Bounded trailing TIME window: per event, the exact-cents sum of the
    same user's values in [ts - 1h, ts] — the ``SUM() OVER (PARTITION BY
    user ORDER BY ts RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT
    ROW)`` frame. RANGE semantics: rows sharing the current ts (peers)
    are INCLUDED, so equal-ts rows of one user all get the peer-group
    total.

    Scale shape: the user-hash bucket pass, then ONE vectorized pass per
    bucket. Window boundaries per row come from a merge trick instead
    of a per-user searchsorted loop: concatenate the sorted (seg, ts)
    originals with (seg, ts - 1h) targets, lexsort once, and a cumsum of
    the original-indicator read off at target positions IS searchsorted
    of every target within its own segment. Sum = prefix-sum difference."""
    gap_us = ROLLING_RANGE_MIN * 60 * 1_000_000
    schema = pa.schema([("event_id", pa.int64()), ("user_id", pa.int64()),
                        ("window_sum_c", pa.int64())])

    def roll(t: pa.Table) -> dict:
        users = t["user_id"].to_numpy()
        us = _us(t["ts"])
        v = _cents(t["value"]).to_numpy()
        starts, seg_len = runs(users)
        seg_id = np.repeat(np.arange(len(starts)), seg_len)
        left = seg_searchsorted(seg_id, us, us - gap_us, "left")
        right = seg_searchsorted(seg_id, us, us, "right")  # peers included
        base = np.repeat(starts, seg_len)
        cs = np.concatenate([[0], np.cumsum(v)])
        return {"event_id": t["event_id"], "user_id": t["user_id"],
                "window_sum_c": cs[base + right] - cs[base + left]}

    res = collect_table(
        bucket_pass(_events(sf_dir, ["event_id", "user_id", "ts", "value"]),
                    ["user_id"], _BY_TIME, roll, schema),
        schema,
    ).to_pandas()
    res["window_sum"] = res["window_sum_c"] / 100.0
    return res[["event_id", "user_id", "window_sum"]].sort_values(
        "event_id"
    ).reset_index(drop=True)


MOVING_AVG_ROWS = 3  # trailing ROWS frame width (2 PRECEDING + CURRENT)


def moving_avg(sf_dir: str) -> pd.DataFrame:
    """Bounded ROWS frame: per event, the mean of the same user's last 3
    values ordered by (ts, event_id) — ``AVG() OVER (... ROWS BETWEEN 2
    PRECEDING AND CURRENT ROW)``. Exact-cents sums divided once at the
    end, mirroring the SQL twin's integer-sum / count / 100 order.

    Scale shape: the user-hash bucket pass, one vectorized pass per
    bucket — prefix-sum difference with the left edge clamped to the
    user's segment start (np.maximum, no per-user loop)."""
    w = MOVING_AVG_ROWS
    schema = pa.schema([("event_id", pa.int64()), ("user_id", pa.int64()),
                        ("win_c", pa.int64()), ("k", pa.int64())])

    def roll(t: pa.Table) -> dict:
        v = _cents(t["value"]).to_numpy()
        starts, seg_len = runs(t["user_id"].to_numpy())
        i = np.arange(len(v), dtype=np.int64)
        left = np.maximum(i - (w - 1), np.repeat(starts, seg_len))
        cs = np.concatenate([[0], np.cumsum(v)])
        return {"event_id": t["event_id"], "user_id": t["user_id"],
                "win_c": cs[i + 1] - cs[left], "k": i - left + 1}

    res = collect_table(
        bucket_pass(_events(sf_dir, ["event_id", "user_id", "ts", "value"]),
                    ["user_id"], _BY_TIME, roll, schema),
        schema,
    ).to_pandas()
    res["moving_avg"] = res["win_c"] / res["k"] / 100.0
    return res[["event_id", "user_id", "moving_avg"]].sort_values(
        "event_id"
    ).reset_index(drop=True)


BAND_W_HOURS = 12  # band-join window width


def band_pair_counts(sf_dir: str) -> pd.DataFrame:
    """Band (interval) self-join: per user, the number of ordered event
    pairs (e1, e2) with ``e1.ts < e2.ts <= e1.ts + 12h`` — the classic
    non-equi time-band join Ray Data has no primitive for, expressed as
    equi-bucket on the join key + ONE vectorized window pass per bucket.

    Scale shape: the only shuffle is the user-hash bucket pass (the same
    partitioning key every other per-user operator here reuses); the
    quadratic pair set is never materialized — per-row pair counts come
    from two ``seg_searchsorted`` calls (prefix-rank difference), and the
    per-user reduction is a segment ``reduceat``. Skewed users cost
    O(n log n) in their bucket, not O(n^2)."""
    w_us = BAND_W_HOURS * 3600 * 1_000_000
    schema = pa.schema([("user_id", pa.int64()), ("n_pairs", pa.int64())])

    def band(t: pa.Table) -> dict:
        users = t["user_id"].to_numpy()
        us = _us(t["ts"])
        starts, seg_len = runs(users)
        seg_id = np.repeat(np.arange(len(starts)), seg_len)
        # pairs per LEFT row: strictly-later rows up to ts + W (inclusive)
        upper = seg_searchsorted(seg_id, us, us + w_us, "right")
        lower = seg_searchsorted(seg_id, us, us, "right")
        return {"user_id": users[starts],
                "n_pairs": np.add.reduceat(upper - lower, starts)}

    return (
        collect_table(
            bucket_pass(_events(sf_dir, ["event_id", "user_id", "ts"]),
                        ["user_id"], _BY_TIME, band, schema),
            schema,
        )
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )


def user_type_entropy(sf_dir: str) -> pd.DataFrame:
    """Per-user Shannon entropy (nats) of the event-type distribution,
    from integer counts: ``H = ln(n) - (sum c_t * ln(c_t)) / n`` with the
    inner sum accumulated in alphabetical type order — absent types add
    an exact +0.0 in the SQL twin's CASE chain, which is the IEEE
    identity, so skipping them entirely is bit-equal.

    Scale shape: ONE user-hash bucket shuffle. Each block first shrinks
    to per-(user, type) partial counts (the shuffle carries count rows,
    not events); the bucket pass combines the partials AND folds the
    entropy in the same vectorized reduceat sweep — no second exchange."""
    schema = pa.schema([("user_id", pa.int64()), ("entropy", pa.float64())])

    def entropy(t: pa.Table) -> dict:
        users = t["user_id"].to_numpy()
        ut, _ = runs(users, t["event_type"].to_numpy())
        n_t = np.add.reduceat(t["n"].to_numpy(), ut)  # (user, type) counts
        users = users[ut]
        c = n_t.astype(np.float64)
        starts, _ = runs(users)
        n = np.add.reduceat(n_t, starts).astype(np.float64)
        slnc = np.add.reduceat(c * np.log(c), starts)  # c >= 1 always
        ent = pa.array(np.log(n) - slnc / n)
        return {"user_id": users[starts],
                "entropy": pc.round(ent, ndigits=6,
                                    round_mode="half_towards_infinity")}

    return (
        collect_table(
            bucket_pass(
                _events(sf_dir, _TYPE_KEYS).map_batches(
                    _type_counts, batch_format="pyarrow"),
                ["user_id"], [(k, "ascending") for k in _TYPE_KEYS], entropy,
                schema),
            schema,
        )
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )


def user_event_path(sf_dir: str) -> pd.DataFrame:
    """Per-user ordered event-type path: the '>' -joined sequence of
    event types in (ts, event_id) order plus its length — the
    ``string_agg(... ORDER BY ts, event_id)`` ordered-aggregate shape.

    Scale shape: the user-hash bucket pass, one sort per bucket, then
    each user's run of types becomes one list (offsets at the run
    starts) joined by ``binary_join`` — no per-user map_groups, no
    driver-side state; output rows are user-cardinality."""
    schema = pa.schema([("user_id", pa.int64()), ("path", pa.string()),
                        ("n_steps", pa.int64())])

    def path(t: pa.Table) -> dict:
        users = t["user_id"].to_numpy()
        starts, seg_len = runs(users)
        offsets = pa.array(np.append(starts, len(users)), pa.int32())
        steps = pa.ListArray.from_arrays(offsets,
                                         t["event_type"].combine_chunks())
        return {"user_id": users[starts], "path": pc.binary_join(steps, ">"),
                "n_steps": seg_len}

    return (
        collect_table(
            bucket_pass(
                _events(sf_dir, ["event_id", "user_id", "ts", "event_type"]),
                ["user_id"], _BY_TIME, path, schema),
            schema,
        )
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )


FUNNEL_STEPS = ("signup", "click", "purchase")


def funnel_counts(sf_dir: str) -> pd.DataFrame:
    """Conversion funnel over each step's FIRST occurrence per user:
    ``n_signup`` users who ever signed up, ``n_signup_click`` of those
    whose first click is strictly after their first signup, ``n_funnel``
    whose first purchase is strictly after that click — the min-timestamp
    funnel contract (each stage compares the user's global first event of
    the step type; NULL steps fail the comparison).

    Scale shape: ONE user-hash bucket shuffle. Blocks shrink to
    per-(user, type) partial min-ts rows first (min is idempotent, so the
    partial/final split is exact; every type is kept so that a user with
    no step event still counts as a user, as in the SQL twin); the bucket
    pass combines the minima, spreads the steps' minima to one slot per
    (user, step), and evaluates the stage booleans in the same sweep,
    emitting ONE partial row per bucket; the driver folds O(buckets)
    rows."""
    keys = ["user_id", "event_type"]
    schema = pa.schema([("n_signup", pa.int64()),
                        ("n_signup_click", pa.int64()),
                        ("n_funnel", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(keys).aggregate([("ts", "min")])
        return pa.table({"user_id": g["user_id"], "event_type": g["event_type"],
                         "ts": g["ts_min"]})

    def fold(t: pa.Table) -> dict:
        users = t["user_id"].to_numpy()
        types = t["event_type"].to_numpy()
        us = _us(t["ts"])
        # sorted by (user, type, ts): each (user, type) run opens with
        # its minimum
        firsts, _ = runs(users, types)
        starts, seg_len = runs(users)
        user_idx = np.repeat(np.arange(len(starts)), seg_len)
        first = {}  # step -> (has, ts) per user
        for step in FUNNEL_STEPS:
            at = firsts[types[firsts] == step]
            has = np.zeros(len(starts), dtype=bool)
            ts = np.zeros(len(starts), dtype=np.int64)
            has[user_idx[at]] = True
            ts[user_idx[at]] = us[at]
            first[step] = (has, ts)
        (h0, t0), (h1, t1), (h2, t2) = (first[s] for s in FUNNEL_STEPS)
        s1 = h0 & h1 & (t1 > t0)
        s2 = s1 & h2 & (t2 > t1)
        return {"n_signup": [h0.sum()], "n_signup_click": [s1.sum()],
                "n_funnel": [s2.sum()]}

    part = collect_table(  # O(buckets) partial rows
        bucket_pass(
            _events(sf_dir, ["user_id", "ts", "event_type"]).map_batches(
                partial, batch_format="pyarrow"),
            ["user_id"], [(k, "ascending") for k in keys + ["ts"]], fold,
            schema),
        schema,
    ).to_pandas()
    # SQL SUM: NULL when there is no user at all, else an exact count
    return part.sum(min_count=1).to_frame().T


def new_users_daily(sf_dir: str) -> pd.DataFrame:
    """Daily NEW users and the cumulative distinct-user count: each
    user's first-ever event day, counted per day, prefix-summed — the
    exact streaming-metrics form of "cumulative uniques over time"
    (count-per-first-seen-day makes the cumulative sum exact without
    re-scanning history).

    Scale shape: ONE shuffle (the per-user ``MIN(ts)`` of the shared
    ``grouped_agg`` stage, whose per-block partial minima shrink the
    exchange); day counting then
    reduces through O(days)-rows-per-block partials folded on the driver
    — day cardinality is calendar-bounded, so the fold is O(blocks *
    days), never user- or event-scaled."""
    from ..stages.partial_agg import grouped_agg

    ds = _events(sf_dir, ["user_id", "ts"])
    first = grouped_agg(ds, ["user_id"], count_alias=None, min_cols=["ts"])

    def day_counts(t: pa.Table) -> pa.Table:
        day = pc.strftime(t["ts"], format="%Y-%m-%d")
        g = pa.table({"day": day}).group_by("day").aggregate([([], "count_all")])
        return pa.table({"day": g["day"], "n_new": g["count_all"]})

    counts = (
        collect_table(  # O(blocks * days)
            first.map_batches(day_counts, batch_format="pyarrow"),
            pa.schema([("day", pa.string()), ("n_new", pa.int64())]),
        )
        .to_pandas()
        .groupby("day", as_index=False)["n_new"].sum()
        .sort_values("day", kind="mergesort")
        .reset_index(drop=True)
    )
    counts["cum_users"] = counts["n_new"].cumsum().astype(np.int64)
    counts["n_new"] = counts["n_new"].astype(np.int64)
    return counts[["day", "n_new", "cum_users"]]


def user_value_mad(sf_dir: str) -> pd.DataFrame:
    """Grouped robust statistics: per-user discrete median of ``value``
    and the median absolute deviation around it (both ``quantile_disc``
    picks — actual input elements, so doubles compare exactly against
    the SQL twin's two-level quantile).

    Scale shape: ONE user-hash bucket shuffle, then both quantile passes
    run vectorized inside the (user, value)-sorted bucket (the median
    pick, then a re-lexsort by (user, |value - median|) for the MAD) — no
    join-back shuffle for the second pass, no per-user map_groups."""
    schema = pa.schema([("user_id", pa.int64()),
                        ("median_value", pa.float64()), ("mad", pa.float64())])

    def mad(t: pa.Table) -> dict:
        users = t["user_id"].to_numpy()
        vals = t["value"].to_numpy()
        starts, seg_len = runs(users)
        pick = starts + (seg_len + 1) // 2 - 1
        med = vals[pick]
        absdev = np.abs(vals - np.repeat(med, seg_len))
        # second quantile pass: re-sort by (user, absdev) — same segments
        order = np.lexsort((absdev, users))
        return {"user_id": users[starts], "median_value": med,
                "mad": absdev[order][pick]}

    return (
        collect_table(
            bucket_pass(_events(sf_dir, ["user_id", "value"]), ["user_id"],
                        _BY_VALUE, mad, schema),
            schema,
        )
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )


RETENTION_MAX_OFFSET = 7


def retention_cohorts(sf_dir: str) -> pd.DataFrame:
    """Cohort retention matrix: users are cohorted by their first-seen
    day, and for each (cohort_day, day_offset 0..7) the output counts the
    distinct users of that cohort active on cohort_day + offset — the
    standard product-analytics retention triangle.

    Scale shape: ONE user-hash bucket shuffle. Blocks shrink to distinct
    (user_id, day) rows first (distinct is idempotent, so block-local
    dedup composes with the bucket dedup); inside each bucket every day
    of a user is co-located, so the cohort day (min), the offsets, and
    the (cohort_day, offset) counts are all one vectorized pass, emitting
    O(cohorts * offsets) partial rows per bucket; the driver folds
    O(buckets * cohorts * offsets) calendar-bounded rows — never user- or
    event-scaled."""
    keys = ["user_id", "day"]
    schema = pa.schema([("cohort_day", pa.string()),
                        ("day_offset", pa.int64()), ("n_users", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        return pa.table(
            {"user_id": t["user_id"], "day": pc.cast(t["ts"], pa.date32())}
        ).group_by(keys).aggregate([])

    def fold(t: pa.Table) -> dict:
        users = t["user_id"].to_numpy()
        day = t["day"].cast(pa.int32()).to_numpy()
        distinct, _ = runs(users, day)
        day = day[distinct]
        starts, seg_len = runs(users[distinct])
        cohort = np.repeat(day[starts], seg_len)
        keep = day - cohort <= RETENTION_MAX_OFFSET
        g = pa.table(
            {"cohort_day": pa.array(cohort[keep]).cast(pa.date32()),
             "day_offset": (day - cohort)[keep].astype(np.int64)}
        ).group_by(["cohort_day", "day_offset"]).aggregate([([], "count_all")])
        return {"cohort_day": g["cohort_day"].cast(pa.string()),
                "day_offset": g["day_offset"], "n_users": g["count_all"]}

    part = collect_table(  # O(buckets * cohorts * offsets)
        bucket_pass(
            _events(sf_dir, ["user_id", "ts"]).map_batches(
                partial, batch_format="pyarrow"),
            ["user_id"], [(k, "ascending") for k in keys], fold, schema),
        schema,
    ).to_pandas()
    out = (
        part.groupby(["cohort_day", "day_offset"], as_index=False)["n_users"]
        .sum()
        .sort_values(["cohort_day", "day_offset"], kind="mergesort")
        .reset_index(drop=True)
    )
    out["day_offset"] = out["day_offset"].astype(np.int64)
    out["n_users"] = out["n_users"].astype(np.int64)
    return out


def window_distinct_users(sf_dir: str) -> pd.DataFrame:
    """Windowed COUNT DISTINCT: distinct active users per tumbling 1-hour
    window — the streaming-metrics uniques-per-window shape.

    Scale shape: block-local (window, user) dedup first (distinct is
    idempotent), ONE (window, user)-hash bucket shuffle finishes the
    dedup, then per-window counts reduce through O(windows)-rows-per-
    block partials folded on the driver — windows are calendar-bounded,
    users never are."""
    from ..stages.partial_agg import grouped_agg

    ds = _events(sf_dir, ["user_id", "ts"])

    def widen(t: pa.Table) -> pa.Table:
        hour = pc.strftime(t["ts"], format="%Y-%m-%d %H:00:00")
        return pa.table({"window_start": hour, "user_id": t["user_id"]}
                        ).group_by(["window_start", "user_id"]).aggregate([])

    def count_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("window_start").aggregate([([], "count_all")])
        return pa.table({"window_start": g["window_start"],
                         "n_users": g["count_all"]})

    deduped = grouped_agg(
        ds.map_batches(widen, batch_format="pyarrow"),
        ["window_start", "user_id"],
    )
    out = (
        collect_table(  # O(blocks * windows)
            deduped.map_batches(count_partial, batch_format="pyarrow"),
            pa.schema([("window_start", pa.string()), ("n_users", pa.int64())]),
        )
        .to_pandas()
        .groupby("window_start", as_index=False)["n_users"].sum()
        .sort_values("window_start", kind="mergesort")
        .reset_index(drop=True)
    )
    out["n_users"] = out["n_users"].astype(np.int64)
    return out


def first_touch_attribution(sf_dir: str) -> pd.DataFrame:
    """First-touch attribution: users grouped by the type of their FIRST
    event ((ts, event_id) order), with how many of each group ever
    purchased — the acquisition-channel conversion report.

    Scale shape: ONE user-hash bucket shuffle. Blocks shrink to one
    first-candidate row + purchase count per user they contain (min is
    idempotent, counts are additive); each bucket resolves the true
    first event and purchase totals vectorized and emits O(types)
    partial rows; the driver folds O(buckets * types)."""
    schema = pa.schema([("first_type", pa.string()), ("n_users", pa.int64()),
                        ("n_purchasers", pa.int64())])

    def first_rows(t: pa.Table, n_purch: np.ndarray) -> pa.Table:
        """Each user's first row of the (user, ts, event_id)-sorted
        ``t``, with the user's total of ``n_purch``."""
        starts, _ = runs(t["user_id"].to_numpy())
        return t.take(starts).append_column(
            "n_purch", pa.array(np.add.reduceat(n_purch, starts)))

    def partial(t: pa.Table) -> pa.Table:
        t = t.sort_by(_BY_TIME)
        bought = pc.equal(t["event_type"], "purchase").to_numpy(
            zero_copy_only=False)
        return first_rows(t, bought.astype(np.int64))

    def fold(t: pa.Table) -> dict:
        first = first_rows(t.drop_columns(["n_purch", "bucket"]),
                           t["n_purch"].to_numpy())
        g = pa.table(
            {"first_type": first["event_type"],
             "bought": pc.greater(first["n_purch"], 0).cast(pa.int64())}
        ).group_by("first_type").aggregate([([], "count_all"),
                                            ("bought", "sum")])
        return {"first_type": g["first_type"], "n_users": g["count_all"],
                "n_purchasers": g["bought_sum"]}

    part = collect_table(  # O(buckets * types)
        bucket_pass(
            _events(sf_dir, ["user_id", "ts", "event_type", "event_id"])
            .map_batches(partial, batch_format="pyarrow"),
            ["user_id"], _BY_TIME, fold, schema),
        schema,
    ).to_pandas()
    return (
        part.groupby("first_type", as_index=False)[["n_users", "n_purchasers"]]
        .sum()
        .sort_values("first_type")
        .reset_index(drop=True)
        .astype({"n_users": np.int64, "n_purchasers": np.int64})
    )


def type_islands(sf_dir: str) -> pd.DataFrame:
    """Gaps-and-islands: collapse each user's consecutive runs of equal
    event_type (ordered by ts, event_id) into validity intervals — the
    SCD-style state-change log. One row per island: (user_id, island_seq
    1-based, event_type, n_events, ts_from, ts_to).

    Scale shape: the session_windows kernel — the user-hash bucket pass,
    ONE vectorized pass per bucket (break-point flags, segment slicing);
    island_seq is the per-user cumsum of break flags, computed by
    subtracting each user's running-break base (np.repeat over segment
    lengths), never a per-user loop."""
    schema = pa.schema([("user_id", pa.int64()), ("island_seq", pa.int64()),
                        ("event_type", pa.string()), ("n_events", pa.int64()),
                        ("ts_from", pa.timestamp("us")),
                        ("ts_to", pa.timestamp("us"))])

    def islands(t: pa.Table) -> dict:
        u = t["user_id"].to_numpy()
        ty = t["event_type"].to_numpy()
        ustarts, ulens = runs(u)
        brk = np.ones(len(u), dtype=bool)
        brk[1:] = (u[1:] != u[:-1]) | (ty[1:] != ty[:-1])
        glob = np.cumsum(brk)  # global island id (1-based)
        seq = glob - np.repeat(glob[ustarts] - 1, ulens)  # per-user 1-based
        starts = np.flatnonzero(brk)
        ends = np.append(starts[1:], len(u)) - 1
        return {"user_id": u[starts], "island_seq": seq[starts],
                "event_type": t["event_type"].take(starts),
                "n_events": ends - starts + 1,
                "ts_from": t["ts"].take(starts), "ts_to": t["ts"].take(ends)}

    res = collect_table(
        bucket_pass(
            _events(sf_dir, ["user_id", "ts", "event_id", "event_type"]),
            ["user_id"], _BY_TIME, islands, schema),
        schema,
    ).to_pandas()
    return res.sort_values(["user_id", "island_seq"]).reset_index(drop=True)


WINDOW_JOIN_SEC = 86400


def window_bounds(
    cu: np.ndarray, cts: np.ndarray, pu: np.ndarray, pts: np.ndarray, w: int
) -> tuple[np.ndarray, np.ndarray]:
    """Merge-rank window bounds for a banded interval join.

    ``(cu, cts)`` is the build side sorted user-major (user, ts); probes
    need, per (pu[i], pts[i]), the index range [lo, hi) of build rows
    with the same user and ts in [pts-w, pts). Probes (user, ts-w) and
    (user, ts) are lexsorted into the build stream, sorting BEFORE build
    rows on exact (user, ts) ties — so the lower bound keeps an equal-ts
    build row inside the window and the upper bound excludes it (strict
    ts < probe ts). The running build-row count at a probe's sorted
    position is exactly its global index into the sorted build array."""
    n_c, n_p = len(cu), len(pu)
    u_all = np.concatenate([cu, pu, pu])
    ts_all = np.concatenate([cts, pts - w, pts])
    flag = np.concatenate([np.ones(n_c, np.int8), np.zeros(2 * n_p, np.int8)])
    order = np.lexsort((flag, ts_all, u_all))
    is_build = (order < n_c).astype(np.int64)
    before = np.cumsum(is_build) - is_build  # build rows strictly before
    pos = np.empty(len(order), np.int64)
    pos[order] = np.arange(len(order))
    return before[pos[n_c:n_c + n_p]], before[pos[n_c + n_p:]]


def _clicks_and_purchases(ds: rd.Dataset) -> rd.Dataset:
    return ds.map_batches(
        lambda t: t.filter(pc.is_in(t["event_type"],
                                    value_set=pa.array(["purchase", "click"]))),
        batch_format="pyarrow")


def window_agg_join(sf_dir: str) -> pd.DataFrame:
    """Range-join + aggregate: for every purchase, the count and exact
    value sum of the SAME USER's clicks in the preceding 24 h
    [ts-24h, ts). The banded interval join Ray Data lacks, expressed
    scalably: never materializing (purchase x click) pairs.

    Scale shape: ONE user-hash bucket shuffle carries both sides; inside
    a bucket the window bounds come from a MERGE RANK — probes
    (user, ts-w) and (user, ts) are lexsorted together with the
    user-major click stream, and the running click count at each probe
    position IS its global index into the sorted click array (clicks of
    earlier users count fully, same-user earlier clicks partially), so
    count = hi-lo and the exact cents sum = prefix[hi]-prefix[lo].
    O((P+C) log(P+C)) per bucket regardless of window width or skew —
    no composite key arithmetic, no overflow, no per-user loop."""
    w = WINDOW_JOIN_SEC * 1_000_000
    schema = pa.schema([("event_id", pa.int64()), ("user_id", pa.int64()),
                        ("ts", pa.timestamp("us")),
                        ("n_clicks_24h", pa.int64()),
                        ("click_sum_c", pa.int64())])

    def probe(t: pa.Table) -> dict:
        c = t.filter(pc.equal(t["event_type"], "click"))
        p = t.filter(pc.equal(t["event_type"], "purchase"))
        cumv = np.concatenate([[0], np.cumsum(_cents(c["value"]).to_numpy())])
        lo, hi = window_bounds(c["user_id"].to_numpy(), _us(c["ts"]),
                               p["user_id"].to_numpy(), _us(p["ts"]), w)
        return {"event_id": p["event_id"], "user_id": p["user_id"],
                "ts": p["ts"], "n_clicks_24h": hi - lo,
                "click_sum_c": cumv[hi] - cumv[lo]}

    res = collect_table(
        bucket_pass(
            _clicks_and_purchases(_events(
                sf_dir, ["event_id", "user_id", "ts", "event_type", "value"])),
            ["user_id"], _BY_TIME, probe, schema),
        schema,
    ).to_pandas()
    res["click_value_sum"] = res["click_sum_c"] / 100.0
    return (
        res.drop(columns="click_sum_c")
        .sort_values("event_id")
        .reset_index(drop=True)
    )


def click_conversion(sf_dir: str) -> pd.DataFrame:
    """Forward-window conversion: the share of clicks followed by a
    purchase from the same user within 24 h — per event hour-of-day,
    so the row count stays fixed while every click is classified.

    Scale shape: REUSES window_bounds verbatim — the forward window
    (ts, ts+24h] equals the kernel's half-open [P-w, P) at
    P = ts + w + 1us because timestamps are integral microseconds; the
    build side is the user-major purchase stream, probes are clicks.
    One bucket shuffle, no pair materialization; each bucket emits at
    most 24 per-hour partial rows, folded on the driver."""
    w = WINDOW_JOIN_SEC * 1_000_000
    schema = pa.schema([("hour", pa.int64()), ("n_clicks", pa.int64()),
                        ("n_converted", pa.int64())])

    def probe(t: pa.Table) -> dict:
        p = t.filter(pc.equal(t["event_type"], "purchase"))
        c = t.filter(pc.equal(t["event_type"], "click"))
        lo, hi = window_bounds(p["user_id"].to_numpy(), _us(p["ts"]),
                               c["user_id"].to_numpy(), _us(c["ts"]) + w + 1, w)
        g = pa.table(
            {"hour": pc.hour(c["ts"]), "conv": (hi > lo).astype(np.int64)}
        ).group_by("hour").aggregate([([], "count_all"), ("conv", "sum")])
        return {"hour": g["hour"], "n_clicks": g["count_all"],
                "n_converted": g["conv_sum"]}

    part = collect_table(  # O(buckets * 24) partial rows
        bucket_pass(
            _clicks_and_purchases(
                _events(sf_dir, ["event_id", "user_id", "ts", "event_type"])),
            ["user_id"], _BY_TIME, probe, schema),
        schema,
    ).to_pandas()
    agg = (
        part.groupby("hour", as_index=False)[["n_clicks", "n_converted"]]
        .sum()
        .sort_values("hour")
        .reset_index(drop=True)
        .astype(np.int64)
    )
    agg["conversion_rate"] = (
        agg["n_converted"].astype(np.float64)
        / agg["n_clicks"].astype(np.float64)
    )
    return agg


def user_value_p90(sf_dir: str) -> pd.DataFrame:
    """Per-USER approximate p90 of value from the HDR sketch — the
    high-cardinality variant of events_hdr_quantiles: user count scales
    with the corpus, so the quantile pick itself must be distributed.

    Scale shape: per-block (user, bucket) count partials -> the
    user-hash bucket pass, and inside each bucket ONE vectorized pass:
    combine the partials (sorted by (user, b)), global cumsum (strictly
    increasing), per-user rank targets offset by the segment base, and a
    SINGLE np.searchsorted over the whole cumulative array resolves every
    user's pick at once — no per-user loop, no driver structure
    proportional to users."""
    from ..functions.sketch import hdr_bucket, hdr_rep_c

    keys = ["user_id", "b"]
    schema = pa.schema([("user_id", pa.int64()), ("n_events", pa.int64()),
                        ("p90", pa.float64())])

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table(
            {"user_id": t["user_id"],
             "b": hdr_bucket(_cents(t["value"]).to_numpy())}
        ).group_by(keys).aggregate([([], "count_all")])
        return pa.table({"user_id": g["user_id"], "b": g["b"],
                         "cnt": g["count_all"]})

    def pick(t: pa.Table) -> dict:
        u = t["user_id"].to_numpy()
        b = t["b"].to_numpy()
        ub, _ = runs(u, b)
        u, b = u[ub], b[ub]
        # combined (user, b) counts: cumsum strictly increasing (cnt >= 1)
        C = np.cumsum(np.add.reduceat(t["cnt"].to_numpy(), ub))
        starts, seg_len = runs(u)
        ends = starts + seg_len - 1
        base = np.where(starts > 0, C[starts - 1], 0)
        n_u = C[ends] - base
        r = (9 * n_u + 9) // 10  # ceil(0.9 n), exact integer rank
        idx = np.searchsorted(C, base + r, side="left")
        return {"user_id": u[starts], "n_events": n_u,
                "p90": hdr_rep_c(b[idx]) / 100.0}

    res = collect_table(
        bucket_pass(
            _events(sf_dir, ["user_id", "value"]).map_batches(
                partial, batch_format="pyarrow"),
            ["user_id"], [(k, "ascending") for k in keys], pick, schema),
        schema,
    ).to_pandas()
    return res.sort_values("user_id").reset_index(drop=True)


EWMA_ALPHA = 0.3


def ewma_values(sf_dir: str) -> pd.DataFrame:
    """Per-user exponentially weighted moving average of event values:
    ewma_1 = x_1, ewma_t = 0.3*x_t + 0.7*ewma_{t-1} ordered by
    (ts, event_id) — the infinite-memory recurrence sibling of the
    bounded-frame moving_avg. The per-step update is evaluated in the
    EXACT IEEE op order of the SQL twin's recursive CTE
    (0.3*x + 0.7*prev, float64), so pre-rounding values are
    bit-identical; emission rounds at 4 dp on both sides.

    Scale shape: the user-hash bucket pass, then a single ordered pass
    per bucket (users are contiguous after the in-bucket sort; the
    recurrence resets at each segment start). The sequential dependency
    is PER USER, so parallelism scales with buckets — a user's history
    is the irreducible sequential unit, never the corpus. The Python
    step loop is the price of bit-exact recursion order; at ~10^4 rows
    per bucket it is noise against the shuffle."""
    a = EWMA_ALPHA
    b = 1.0 - EWMA_ALPHA
    schema = pa.schema([("event_id", pa.int64()), ("user_id", pa.int64()),
                        ("value", pa.float64()), ("ewma", pa.float64())])

    def kern(t: pa.Table) -> dict:
        users = t["user_id"].to_numpy()
        vals = t["value"].to_numpy()
        out = np.empty(len(vals), dtype=np.float64)
        prev_u = None
        prev = 0.0
        for i, (u, v) in enumerate(zip(users.tolist(), vals.tolist())):
            e = v if u != prev_u else a * v + b * prev
            out[i] = e
            prev = e
            prev_u = u
        # half-away-from-zero at 4 dp (DuckDB round(); np.round is
        # half-even): the recursion doubles are BIT-IDENTICAL to the
        # oracle's, so exact grid midpoints occur (2-dec inputs times
        # 0.3/0.7) and the rounding RULE must match — unlike the
        # noise-separated 4-dp emissions (nll/cosine/pmi), where the
        # two sides never land on the same exact midpoint
        r4 = np.sign(out) * np.floor(np.abs(out) * 1e4 + 0.5) / 1e4
        return {"event_id": t["event_id"], "user_id": t["user_id"],
                "value": t["value"], "ewma": r4}

    res = collect_table(
        bucket_pass(_events(sf_dir, ["event_id", "user_id", "ts", "value"]),
                    ["user_id"], _BY_TIME, kern, schema),
        schema,
    ).to_pandas()
    return res.sort_values("event_id").reset_index(drop=True)

"""Relational pipelines over the TPC-H-ish testdata tables, Ray-Data-first.

These exercise the engine's generic operator surface (filter / project /
computed columns / broadcast join / grouped aggregation / sort / limit /
distinct); each has an exact DuckDB SQL twin in __ray_entry__.

Float determinism: money/quantity aggregates are computed on integer cents
(round(x*100) as int64) inside vectorized map_batches and divided back at
the end, so Ray and DuckDB produce bit-identical doubles regardless of
summation order (the driver compares value hashes).

Broadcast joins: the dimension side (customer / nation / region) is read
once driver-side, shipped with ray.put, and merged per batch — no shuffle
(SURVEY.md §2.4 J-ops pattern).

Result shape: each query's final ``.to_pandas()`` is the DRIVER-RESULT
adapter for the correctness gate (the gate hashes a DataFrame against the
SQL twin's ordered output). Every aggregation is a Dataset right up to
that last call — a production consumer writes that Dataset to a sink
instead; nothing upstream materializes on the driver.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd

from ..pqread import read_parquet as _read_parquet
from ray.data.aggregate import Count, Max, Min, Sum

from ..stages.carry_scan import group_ordinal_scan, run_starts, sorted_carry_scan
from ..stages.partial_agg import from_pandas as _from_pandas
from ..stages.partial_agg import grouped_agg

__all__ = [
    "q1_pricing_summary",
    "top_customers",
    "region_customer_stats",
    "events_by_type",
    "events_user_daily",
    "part_filter",
    "orders_priority_count",
    "order_revenue_topk",
    "distinct_event_types",
    "supplier_nation_stats",
    "docs_jsonl_source",
    "events_value_decile",
    "events_csv_source",
    "events_value_quantiles_cont",
    "events_assoc_rules",
    "docs_source_lang_pivot",
    "events_user_type_count",
    "lineitem_rollup",
    "events_corr_stats",
    "users_purchase_and_error",
    "users_click_no_purchase",
    "events_pruned_scan",
    "users_click_purchase_outer",
    "events_hive_source",
    "events_union_sources",
    "events_dow_hour",
    "events_zscore_outliers",
    "lineitem_q6",
    "events_value_hist",
    "orders_monthly_growth",
    "docs_longest_per_lang",
    "events_type_share",
]


def _read(sf_dir: str, table: str, columns: list[str] | None = None) -> rd.Dataset:
    return _read_parquet(os.path.join(sf_dir, f"{table}.parquet"), columns=columns)


from ..money import cents as _cents
from ..money import cents_np as _cents_np


def q1_pricing_summary(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1-shaped pricing summary: per (returnflag, linestatus)
    sum qty / base price / discounted price, avg qty, row count.
    Pre-aggregation happens inside Ray's grouped aggregate (per-block
    partials then combine) over integer cents."""
    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def widen(t: pa.Table) -> pa.Table:
        qty_c = _cents(t["l_quantity"])
        price_c = _cents(t["l_extendedprice"])
        disc_c = _cents(t["l_discount"])  # discount in hundredths
        disc_price = pc.multiply(price_c, pc.subtract(pa.scalar(100, pa.int64()), disc_c))
        return pa.Table.from_arrays(
            [t["l_returnflag"].combine_chunks(), t["l_linestatus"].combine_chunks(),
             qty_c, price_c, disc_price],
            names=["l_returnflag", "l_linestatus", "qty_c", "price_c", "disc_price_c4"],
        )

    agg = grouped_agg(
        ds.map_batches(widen, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        ["qty_c", "price_c", "disc_price_c4"],
    ).to_pandas()
    out = pd.DataFrame(
        {
            "l_returnflag": agg["l_returnflag"],
            "l_linestatus": agg["l_linestatus"],
            "sum_qty": agg["qty_c"] / 100.0,
            "sum_base_price": agg["price_c"] / 100.0,
            "sum_disc_price": agg["disc_price_c4"] / 10000.0,
            "avg_qty": agg["qty_c"] / agg["n"] / 100.0,
            "n": agg["n"],
        }
    )
    return out.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


def top_customers(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Top-k customers by total order value: grouped sum over orders,
    sort desc, limit — and only THEN fetch the k winners' names with a
    key-filtered customer scan. Customer scales with the corpus, so the
    dimension never ships whole (the pre-round-4 plan broadcast the full
    custkey->name dict to decorate rows a limit was about to discard)."""
    import pyarrow.compute as pc_

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def widen(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["o_custkey"].combine_chunks(), _cents(t["o_totalprice"])],
            names=["o_custkey", "price_c"],
        )

    top = (
        orders.map_batches(widen, batch_format="pyarrow")
        .groupby("o_custkey")
        .aggregate(Sum("price_c", alias_name="revenue_c"), Count(alias_name="n_orders"))
        .sort(["revenue_c", "o_custkey"], descending=[True, False])
        .limit(k)
        .to_pandas()
    )
    want = top["o_custkey"].to_numpy(np.int64)
    names = (
        _read(sf_dir, "customer", ["c_custkey", "c_name"])
        .map_batches(
            lambda t: t.filter(pc_.is_in(t["c_custkey"], pa.array(want))),
            batch_format="pyarrow",
        )
        .to_pandas()  # exactly the k winners
    )
    lut = dict(zip(names.get("c_custkey", []), names.get("c_name", [])))
    top["c_name"] = top["o_custkey"].map(lambda ck: lut.get(ck, ""))
    top["revenue"] = top["revenue_c"] / 100.0
    return top[["o_custkey", "c_name", "revenue", "n_orders"]]


def region_customer_stats(sf_dir: str) -> pd.DataFrame:
    """Customers per region: two-hop broadcast join (customer -> nation ->
    region, both dimension sides shipped once) + grouped aggregation."""
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet")).to_pandas()
    region = pq.read_table(os.path.join(sf_dir, "region.parquet")).to_pandas()
    nk_to_region = dict(
        zip(
            nation["n_nationkey"],
            nation["n_regionkey"].map(dict(zip(region["r_regionkey"], region["r_name"]))),
        )
    )
    ref = ray.put(nk_to_region)

    cust = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    def widen(df: pd.DataFrame) -> pd.DataFrame:
        lut = ray.get(ref)
        return pd.DataFrame(
            {
                "r_name": df["c_nationkey"].map(lut),
                "acct_c": _cents_np(df["c_acctbal"].to_numpy()),
            }
        )

    agg = (
        cust.map_batches(widen, batch_format="pandas")
        .groupby("r_name")
        .aggregate(Count(alias_name="n_customers"), Sum("acct_c", alias_name="acct_c"))
        .to_pandas()
    )
    agg["sum_acctbal"] = agg["acct_c"] / 100.0
    agg["avg_acctbal"] = agg["acct_c"] / agg["n_customers"] / 100.0
    return agg[["r_name", "n_customers", "sum_acctbal", "avg_acctbal"]].sort_values(
        "r_name"
    ).reset_index(drop=True)


def events_by_type(sf_dir: str) -> pd.DataFrame:
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def widen(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["event_type"].combine_chunks(), _cents(t["value"])],
            names=["event_type", "value_c"],
        )

    agg = (
        ds.map_batches(widen, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Count(alias_name="n"),
            Sum("value_c", alias_name="value_c"),
            Min("value_c", alias_name="min_c"),
            Max("value_c", alias_name="max_c"),
        )
        .to_pandas()
    )
    out = pd.DataFrame(
        {
            "event_type": agg["event_type"],
            "n": agg["n"],
            "sum_value": agg["value_c"] / 100.0,
            "avg_value": agg["value_c"] / agg["n"] / 100.0,
            "min_value": agg["min_c"] / 100.0,
            "max_value": agg["max_c"] / 100.0,
        }
    )
    return out.sort_values("event_type").reset_index(drop=True)


def events_user_daily(sf_dir: str) -> pd.DataFrame:
    """Per (user, day) event counts — computed day key inside map_batches,
    then grouped count (the windowed-aggregate building block)."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def widen(t: pa.Table) -> pa.Table:
        day = pc.strftime(t["ts"], format="%Y-%m-%d")
        return pa.Table.from_arrays(
            [t["user_id"].combine_chunks(), day, _cents(t["value"])],
            names=["user_id", "day", "value_c"],
        )

    # (user, day) cardinality is a large fraction of the row count ->
    # hash-bucketed combine instead of per-block partials
    agg = grouped_agg(
        ds.map_batches(widen, batch_format="pyarrow"), ["user_id", "day"], ["value_c"]
    ).to_pandas()
    agg["sum_value"] = agg["value_c"] / 100.0
    return agg[["user_id", "day", "n", "sum_value"]].sort_values(
        ["user_id", "day"]
    ).reset_index(drop=True)


def part_filter(sf_dir: str) -> pd.DataFrame:
    """Vectorized filter + projection (predicate inside map_batches)."""
    ds = _read(sf_dir, "part", ["p_partkey", "p_name", "p_size", "p_retailprice", "p_brand"])

    def flt(t: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.greater_equal(t["p_size"], 25), pc.greater(t["p_retailprice"], 950.0)
        )
        return t.filter(mask).select(["p_partkey", "p_name", "p_size", "p_retailprice"])

    df = ds.map_batches(flt, batch_format="pyarrow").to_pandas()
    if df.empty:  # preserve schema AND dtypes on empty results (an
        # all-object empty frame red-flagged the sf0.001 dtype check)
        df = pd.DataFrame({
            "p_partkey": pd.Series([], dtype="int64"),
            "p_name": pd.Series([], dtype="object"),
            "p_size": pd.Series([], dtype="int32"),
            "p_retailprice": pd.Series([], dtype="float64"),
        })
    return df.sort_values("p_partkey").reset_index(drop=True)


def orders_priority_count(sf_dir: str) -> pd.DataFrame:
    ds = _read(sf_dir, "orders", ["o_orderstatus", "o_orderpriority"])

    def flt(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["o_orderstatus"], "F")).select(["o_orderpriority"])

    return (
        ds.map_batches(flt, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(Count(alias_name="n"))
        .to_pandas()
        .sort_values("o_orderpriority")
        .reset_index(drop=True)
    )


def order_revenue_topk(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Per-order discounted revenue, top-k.

    Scale shape: l_orderkey cardinality ~ row count (per-block partials
    would not shrink the shuffle), so the grouped sum is hash-bucketed
    (ocr_ray.stages.partial_agg.grouped_agg) and the top-k is a
    per-block partial top-k followed by a driver-side merge of n_blocks*k
    candidate rows — no global sort."""

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def widen(t: pa.Table) -> pa.Table:
        price_c = _cents(t["l_extendedprice"])
        disc_c = _cents(t["l_discount"])
        rev = pc.multiply(price_c, pc.subtract(pa.scalar(100, pa.int64()), disc_c))
        return pa.Table.from_arrays(
            [t["l_orderkey"].combine_chunks(), rev], names=["l_orderkey", "rev_c4"]
        )

    agg = grouped_agg(
        ds.map_batches(widen, batch_format="pyarrow"), ["l_orderkey"], ["rev_c4"]
    )

    def block_topk(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(
            ["rev_c4", "l_orderkey"], ascending=[False, True], kind="mergesort"
        )
        return _from_pandas(df.head(k))

    cand = agg.map_batches(block_topk, batch_format="pyarrow").to_pandas()
    top = cand.sort_values(
        ["rev_c4", "l_orderkey"], ascending=[False, True], kind="mergesort"
    ).head(k).reset_index(drop=True)
    top["revenue"] = top["rev_c4"] / 10000.0
    return top[["l_orderkey", "revenue"]]


def events_value_stats(sf_dir: str) -> pd.DataFrame:
    """Variance/stddev per event type via exact integer moments:
    var = (n*sum(x²) - sum(x)²) / (n*(n-1)) with x in cents, so Ray and
    SQL produce bit-identical doubles (library stddev algorithms differ
    in float accumulation order)."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def widen(t: pa.Table) -> pa.Table:
        c = _cents(t["value"])
        return pa.Table.from_arrays(
            [t["event_type"].combine_chunks(), c, pc.multiply(c, c)],
            names=["event_type", "c", "c2"],
        )

    agg = grouped_agg(
        ds.map_batches(widen, batch_format="pyarrow"), ["event_type"], ["c", "c2"]
    ).to_pandas()
    n = agg["n"].astype(np.int64)
    var = (n * agg["c2"] - agg["c"] ** 2) / (n * (n - 1)) / 10000.0
    out = pd.DataFrame(
        {
            "event_type": agg["event_type"],
            "n": n,
            "mean_value": agg["c"] / n / 100.0,
            "var_value": np.round(var, 6),
        }
    )
    return out.sort_values("event_type").reset_index(drop=True)


def _rank_pick_by_key(
    ds: rd.Dataset,
    key: str,
    val: str,
    uid: str,
    ranks_by_key: dict[str, "set[int] | list[int]"],
    nblocks: int | None = None,
) -> dict[tuple[str, int], float]:
    """Distributed selection: the value at each requested global 0-based
    rank within every key's value-sorted order, without ever holding one
    key's rows in a single task (VERDICT r4 item 2).

    ONE range sort on (key, val, uid) — uid is a row-unique tiebreak —
    then the shared carry-scan
    (:func:`ocr_ray.stages.carry_scan.group_ordinal_scan`) hands every
    block each row's rank within its key; each block emits the rows whose
    rank was requested, <= |requested ranks| rows in total. A hot key
    (one event_type = half the corpus) just spans more sorted blocks; no
    task's input grows with the key's row count.
    """
    ranks_arr = {
        str(k): np.asarray(sorted(set(int(r) for r in rs)), dtype=np.int64)
        for k, rs in ranks_by_key.items()
        if len(rs)
    }
    if not ranks_arr:
        return {}
    rref = ray.put(ranks_arr)

    _OUT = pa.schema(
        [("key", pa.string()), ("rank", pa.int64()), ("value", pa.float64())]
    )

    def probe(t: pa.Table, seq: np.ndarray) -> pa.Table:
        if t.num_rows == 0:
            return _OUT.empty_table()
        want = ray.get(rref)
        k = t.column(key).to_numpy(zero_copy_only=False)
        hit = np.zeros(len(k), dtype=bool)
        bounds = np.append(run_starts(k), len(k))
        for s, e in zip(bounds[:-1], bounds[1:]):
            hit[s:e] = np.isin(seq[s:e], want.get(str(k[s]), []))
        v = t.column(val).to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(k[hit].astype(str)), pa.array(seq[hit]), pa.array(v[hit])],
            schema=_OUT,
        )

    picked = group_ordinal_scan(
        ds, [key, val, uid], probe, nblocks=nblocks
    ).to_pandas()  # <= sum(len(ranks)) rows
    return {
        (row.key, int(row.rank)): float(row.value)
        for row in picked.itertuples(index=False)
    }


_QUANTS = (("p50", 0.5), ("p90", 0.9), ("p99", 0.99))


def events_value_quantiles(sf_dir: str) -> pd.DataFrame:
    """Exact per-type quantiles (p50/p90/p99), ``quantile_disc``
    semantics (first element with cume_dist >= q: rank = ceil(q*n) - 1).

    Scale shape: grouped count (per-block partials) -> target ranks per
    type -> ONE distributed (type, value) range sort -> per-block rank
    probe (:func:`_rank_pick_by_key`). No task ever holds a whole type's
    rows — the r4-weak whole-group map_groups kernel is gone."""
    counts = grouped_agg(
        _read(sf_dir, "events", ["event_type"]), ["event_type"]).to_pandas()
    n_by_type = dict(zip(counts["event_type"].astype(str), counts["n"].astype(int)))
    ranks = {
        t: {max(0, int(np.ceil(q * n)) - 1) for _, q in _QUANTS}
        for t, n in n_by_type.items()
    }
    vals = _rank_pick_by_key(
        _read(sf_dir, "events", ["event_type", "value", "event_id"]),
        "event_type", "value", "event_id", ranks,
    )
    rows = []
    for t in sorted(n_by_type):
        n = n_by_type[t]
        row = {"event_type": t}
        for name, q in _QUANTS:
            row[name] = vals[(t, max(0, int(np.ceil(q * n)) - 1))]
        rows.append(row)
    return pd.DataFrame(rows, columns=["event_type", "p50", "p90", "p99"])


def docs_lang_sources(sf_dir: str) -> pd.DataFrame:
    """Grouped string aggregation: per lang, doc count + sorted distinct
    sources joined with ','.

    Scale shape: grouped-distinct FIRST — the shuffle carries one
    (lang, source) row per distinct pair with its count (grouped_agg:
    every block pre-combines), then the driver folds |langs| x |sources|
    rows into the string agg. No task and no driver pull ever sees one
    lang's raw doc rows (the r4-weak whole-group map_groups is gone)."""
    pairs = grouped_agg(
        _read(sf_dir, "documents", ["lang", "source"]), ["lang", "source"]).to_pandas()
    g = pairs.groupby("lang", sort=True)
    out = pd.DataFrame(
        {
            "lang": list(g.groups),
            "n_docs": g["n"].sum().to_numpy(dtype=np.int64),
            "sources": [
                ",".join(sorted(set(s))) for _, s in g["source"]
            ],
        }
    )
    return out.reset_index(drop=True)


def events_props_sum(sf_dir: str) -> pd.DataFrame:
    """Semi-structured extraction: pull the integer 'k' field out of the
    JSON ``props`` column (vectorized regex — compiled once, C-speed) and
    sum it per event type. SQL twin uses the same regex."""
    import re as re_

    ds = _read(sf_dir, "events", ["event_type", "props"])
    k_re = re_.compile(r'"k":\s*(\d+)')

    def widen(t: pa.Table) -> pa.Table:
        ks = np.fromiter(
            (
                int(m.group(1)) if (m := k_re.search(p or "")) else 0
                for p in t.column("props").to_pylist()
            ),
            dtype=np.int64,
            count=t.num_rows,
        )
        return pa.Table.from_arrays(
            [t["event_type"].combine_chunks(), pa.array(ks)],
            names=["event_type", "k"],
        )

    agg = grouped_agg(
        ds.map_batches(widen, batch_format="pyarrow"), ["event_type"], ["k"]
    ).to_pandas()
    return (
        agg.rename(columns={"k": "sum_k"})[["event_type", "sum_k", "n"]]
        .sort_values("event_type")
        .reset_index(drop=True)
    )


def distinct_event_types(sf_dir: str) -> pd.DataFrame:
    ds = _read(sf_dir, "events", ["event_type"])
    vals = sorted(ds.unique("event_type"))
    return pd.DataFrame({"event_type": vals})


def supplier_nation_stats(sf_dir: str) -> pd.DataFrame:
    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    ).to_pandas()
    ref = ray.put(dict(zip(nation["n_nationkey"], nation["n_name"])))
    ds = _read(sf_dir, "supplier", ["s_nationkey", "s_acctbal"])

    def widen(df: pd.DataFrame) -> pd.DataFrame:
        lut = ray.get(ref)
        return pd.DataFrame(
            {
                "n_name": df["s_nationkey"].map(lut),
                "acct_c": _cents_np(df["s_acctbal"].to_numpy()),
            }
        )

    agg = (
        ds.map_batches(widen, batch_format="pandas")
        .groupby("n_name")
        .aggregate(Count(alias_name="n_suppliers"), Sum("acct_c", alias_name="acct_c"))
        .to_pandas()
    )
    agg["sum_acctbal"] = agg["acct_c"] / 100.0
    return agg[["n_name", "n_suppliers", "sum_acctbal"]].sort_values(
        "n_name"
    ).reset_index(drop=True)


# value-tier boundaries for the broadcast range join: [lo, hi) half-open
# ranges over the events value column (histogram/binning shape). End tiers
# are UNBOUNDED (lo/hi None) — the searchsorted assignment and the SQL
# twin's NULL bounds both bin by upper bounds only, so a negative value
# lands in 'low'.
VALUE_TIERS = (("low", None, 20.0), ("mid", 20.0, 80.0), ("high", 80.0, None))


def events_value_tiers(sf_dir: str) -> pd.DataFrame:
    """Broadcast RANGE join: every event joins the tier whose [lo, hi)
    value range contains it — the non-equi-join / binning shape (feature
    bucketing, histogram tiers). The tiny range table is a constant
    shipped in the task closure; per batch the lookup is ONE vectorized
    np.searchsorted against the sorted boundaries (never a per-row scan,
    never a shuffle on the build side), then exact-cents count + sum per
    tier. SQL twin states it as an actual range join against VALUES."""
    ds = _read(sf_dir, "events", ["value"])
    bounds = np.array([t[1] for t in VALUE_TIERS[1:]], dtype=np.float64)
    names = np.array([t[0] for t in VALUE_TIERS])

    def assign(t: pa.Table) -> pa.Table:
        v = t.column("value").to_numpy(zero_copy_only=False)
        tier = names[np.searchsorted(bounds, v, side="right")]
        value_c = _cents_np(v)  # half-away-from-zero == DuckDB round()
        df = pd.DataFrame({"tier": tier, "value_c": value_c})
        g = df.groupby("tier", as_index=False).agg(
            value_c=("value_c", "sum"), n=("value_c", "size")
        )
        return _from_pandas(g)

    out = (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby("tier")
        .aggregate(Sum("value_c", alias_name="value_c"), Sum("n", alias_name="n"))
        .to_pandas()
    )
    out["sum_value"] = out["value_c"] / 100.0
    out["n"] = out["n"].astype(np.int64)
    return out[["tier", "n", "sum_value"]].sort_values("tier").reset_index(drop=True)


def _conv_cache_key(sf_dir: str, table: str) -> str:
    """Cache key for one-time /tmp format conversions: source path PLUS
    the source file's mtime+size, so a regenerated parquet at the same
    path invalidates the cached rewrite instead of serving stale data."""
    import hashlib as _hl

    st = os.stat(os.path.join(sf_dir, f"{table}.parquet"))
    return _hl.md5(
        f"{os.path.abspath(sf_dir)}|{table}|{st.st_mtime_ns}|{st.st_size}"
        .encode()
    ).hexdigest()[:12]


def _docs_jsonl_dir(sf_dir: str) -> str:
    """One-time parquet->json-lines conversion of the documents table,
    cached under /tmp keyed by the source dir (atomic rename so
    concurrent queries share one conversion). The conversion itself is a
    Ray Data job: read_parquet -> write_json, no driver materialization."""
    import shutil

    key = _conv_cache_key(sf_dir, "documents")
    out = os.path.join("/tmp", "ocr_ray_jsonl", key, "documents")
    if os.path.isdir(out) and os.listdir(out):
        return out
    tmp = f"{out}.tmp-{os.getpid()}"  # per-process: concurrent cold-cache
    # converters must not interleave writes in a shared tmp dir
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    _read(sf_dir, "documents", ["doc_id", "text", "lang"]).write_json(tmp)
    try:
        os.rename(tmp, out)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)  # concurrent winner exists
    return out


def docs_jsonl_source(sf_dir: str) -> pd.DataFrame:
    """Source-format parity (S-ops, json-lines): the documents table is
    round-tripped parquet -> JSONL -> ``ray.data.read_json``, then
    aggregated per lang — doc count, sum of doc_id (proves row identity)
    and sum of text length in code points (proves the TEXT column
    round-trips byte-exactly through JSON escaping). The SQL twin runs
    the same aggregate over the original parquet, so any JSONL
    encode/decode corruption flips the hash."""
    ds = rd.read_json(_docs_jsonl_dir(sf_dir))

    def widen(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["lang"].combine_chunks(),
             t["doc_id"].cast(pa.int64()).combine_chunks(),
             pc.cast(pc.utf8_length(t["text"].combine_chunks()), pa.int64())],
            names=["lang", "doc_id", "len"],
        )

    agg = grouped_agg(
        ds.map_batches(widen, batch_format="pyarrow"),
        ["lang"], ["doc_id", "len"],
    ).to_pandas()
    out = agg.rename(columns={"doc_id": "sum_ids", "len": "sum_len",
                              "n": "n_docs"})
    return out[["lang", "n_docs", "sum_ids", "sum_len"]].sort_values(
        "lang"
    ).reset_index(drop=True)


def events_value_decile(sf_dir: str) -> pd.DataFrame:
    """Global order statistics: every event's decile by value — the
    ``(row_number() OVER (ORDER BY value, event_id) - 1) * 10 // n``
    shape, i.e. a GLOBAL rank over the whole corpus.

    Scale shape: ONE range-partitioning sort, then the shared carry-scan
    (:func:`ocr_ray.stages.carry_scan.sorted_carry_scan`, carry = rows
    before the block): each block's rank is the carried offset plus the
    in-block index. Driver state is O(blocks), independent of row
    count."""
    _OUT = pa.schema([("event_id", pa.int64()), ("value", pa.float64()),
                      ("decile", pa.int64())])

    def rank_block(t: pa.Table, off, total) -> pa.Table:
        if t.num_rows == 0:
            return _OUT.empty_table()
        r = off + np.arange(t.num_rows, dtype=np.int64)
        return pa.Table.from_arrays(
            [t.column("event_id").cast(pa.int64()).combine_chunks(),
             t.column("value").combine_chunks(),
             pa.array(r * 10 // total)],
            names=["event_id", "value", "decile"],
        )

    return (
        sorted_carry_scan(
            _read(sf_dir, "events", ["event_id", "value"]),
            ["value", "event_id"],
            block_stat=lambda t: t.num_rows,
            init=0,
            fold=lambda n, m: n + m,
            apply_fn=rank_block,
        )
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )


def _events_csv_dir(sf_dir: str) -> str:
    """One-time parquet->CSV conversion of the events table (cached under
    /tmp keyed by source dir, atomic rename). Ray Data job end-to-end;
    arrow's CSV writer emits shortest-round-trip doubles, so ``value``
    survives the text round trip bit-exactly (pinned by pytest)."""
    import shutil

    key = _conv_cache_key(sf_dir, "events")
    out = os.path.join("/tmp", "ocr_ray_csv", key, "events")
    if os.path.isdir(out) and os.listdir(out):
        return out
    tmp = f"{out}.tmp-{os.getpid()}"  # per-process: concurrent cold-cache
    # converters must not interleave writes in a shared tmp dir
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    _read(sf_dir, "events", ["event_id", "event_type", "value"]).write_csv(tmp)
    try:
        os.rename(tmp, out)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)  # concurrent winner exists
    return out


def events_csv_source(sf_dir: str) -> pd.DataFrame:
    """Source-format parity (S-ops, csv): the events table round-tripped
    parquet -> CSV -> ``ray.data.read_csv``, aggregated per type — count,
    sum of event_ids (row identity) and exact-cents value sum (proves the
    DOUBLE column survives the text round trip). The SQL twin reads the
    original parquet, so any CSV encode/decode corruption flips the
    hash."""
    ds = rd.read_csv(_events_csv_dir(sf_dir))

    def widen(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["event_type"].combine_chunks(),
             t["event_id"].cast(pa.int64()).combine_chunks(),
             _cents(t["value"])],
            names=["event_type", "event_id", "value_c"],
        )

    agg = grouped_agg(
        ds.map_batches(widen, batch_format="pyarrow"),
        ["event_type"], ["event_id", "value_c"],
    ).to_pandas()
    out = pd.DataFrame(
        {"event_type": agg["event_type"], "n": agg["n"],
         "sum_ids": agg["event_id"].astype(np.int64),
         "sum_value": agg["value_c"] / 100.0}
    )
    return out.sort_values("event_type").reset_index(drop=True)


def events_value_quantiles_cont(sf_dir: str) -> pd.DataFrame:
    """Interpolated per-type quantiles (``quantile_cont`` semantics:
    position q*(n-1), linear blend lo*(1-frac) + hi*frac — the exact
    DuckDB formula, verified op-for-op).

    Scale shape: grouped count -> the lo/hi ranks around each target
    position -> ONE distributed (type, value) range sort -> per-block
    rank probe (:func:`_rank_pick_by_key`), then the driver blends the
    <= 6 fetched values per type. No whole-type map_groups task."""
    counts = grouped_agg(
        _read(sf_dir, "events", ["event_type"]), ["event_type"]).to_pandas()
    n_by_type = dict(zip(counts["event_type"].astype(str), counts["n"].astype(int)))

    def _lo_hi(q: float, n: int) -> tuple[int, int, float]:
        pos = q * (n - 1)
        lo = int(np.floor(pos))
        hi = int(np.ceil(pos))
        return lo, hi, pos - lo

    ranks: dict[str, set[int]] = {}
    for t, n in n_by_type.items():
        want: set[int] = set()
        for _, q in _QUANTS:
            lo, hi, _f = _lo_hi(q, n)
            want.update((lo, hi))
        ranks[t] = want
    vals = _rank_pick_by_key(
        _read(sf_dir, "events", ["event_type", "value", "event_id"]),
        "event_type", "value", "event_id", ranks,
    )
    rows = []
    for t in sorted(n_by_type):
        n = n_by_type[t]
        row = {"event_type": t}
        for name, q in _QUANTS:
            lo, hi, frac = _lo_hi(q, n)
            row[name] = float(
                vals[(t, lo)] * (1 - frac) + vals[(t, hi)] * frac
            )
        rows.append(row)
    return pd.DataFrame(rows, columns=["event_type", "p50", "p90", "p99"])


# Fixed pivot column set — matches the corpus generator's lang list and
# the SQL twin's FILTER clauses verbatim (an unknown lang raises rather
# than silently dropping counts).
PIVOT_LANGS = ("de", "en", "es", "fr", "zh")


def docs_source_lang_pivot(sf_dir: str) -> pd.DataFrame:
    """Pivot (long -> wide): per source, one doc-count column per lang
    plus the row total. The wide step is driver-side over the (source,
    lang) AGGREGATE — |sources| x |langs| rows, never the corpus; the
    corpus-scale work is the grouped_agg grouped count."""

    ds = _read(sf_dir, "documents", ["source", "lang"])
    counts = grouped_agg(ds, ["source", "lang"]).to_pandas()
    unknown = set(counts["lang"]) - set(PIVOT_LANGS)
    if unknown:
        raise ValueError(f"unexpected langs for pivot: {sorted(unknown)}")
    wide = (
        counts.pivot_table(index="source", columns="lang", values="n",
                           aggfunc="sum", fill_value=0)
        .reindex(columns=list(PIVOT_LANGS), fill_value=0)
        .astype(np.int64)
    )
    wide.columns = [f"n_{c}" for c in wide.columns]
    wide["n_total"] = wide.sum(axis=1)
    return wide.reset_index().sort_values("source").reset_index(drop=True)


def events_user_type_count(sf_dir: str) -> pd.DataFrame:
    """Grouped COUNT DISTINCT at corpus-scale key cardinality: per user,
    the number of distinct event types plus total events.

    Scale shape: the shuffle carries deduped (user, type) partial counts
    (grouped_agg over the pair — every block contributes at most one
    row per pair), then a second grouped_agg per user folds pair rows
    into (n_types = rows, n_events = sum of counts). Never a raw-row
    groupby(user)."""
    from ..stages.partial_agg import collect_table

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    pairs = grouped_agg(ds, ["user_id", "event_type"], count_alias="n_events")
    schema = pa.schema([("user_id", pa.int64()), ("n_types", pa.int64()),
                        ("n_events", pa.int64())])
    return (
        collect_table(grouped_agg(pairs, ["user_id"], ["n_events"],
                                  count_alias="n_types"), schema)
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )


def events_pruned_scan(sf_dir: str) -> pd.DataFrame:
    """Predicate-pushdown source (prune at the read): the row filter is
    handed to ``read_parquet`` as an Arrow dataset expression, so
    row-group statistics skip non-matching groups and only the THREE
    needed columns of the matching rows leave storage — the 100-TB rule
    that a scan feeding a selective pipeline must never materialize
    non-qualifying rows. Downstream: exact-cents daily purchase revenue
    (O(days) groups)."""
    import pyarrow.dataset as pads

    ds = _read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["ts", "value"],
        filter=(pads.field("event_type") == "purchase"),
    )

    def widen(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pc.strftime(t["ts"], format="%Y-%m-%d"), _cents(t["value"])],
            names=["day", "value_c"],
        )

    agg = grouped_agg(
        ds.map_batches(widen, batch_format="pyarrow"), ["day"], ["value_c"]
    ).to_pandas()
    out = pd.DataFrame(
        {"day": agg["day"], "n": agg["n"].astype(np.int64),
         "sum_value": agg["value_c"] / 100.0}
    )
    return out.sort_values("day").reset_index(drop=True)


def lineitem_rollup(sf_dir: str) -> pd.DataFrame:
    """Multi-level aggregate (GROUP BY ROLLUP shape): quantity sum + row
    count at (returnflag, linestatus), per returnflag, and grand total,
    with rolled-up columns labelled 'ALL'.

    Scale shape: the corpus-scale work is ONE distributed partial-agg
    pass at the finest grouping; the coarser levels are derived from that
    O(groups)-row result on the driver (re-aggregating 6 rows), never by
    re-scanning the input per level."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity"])

    def widen(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["l_returnflag"].combine_chunks(), t["l_linestatus"].combine_chunks(),
             _cents(t["l_quantity"])],
            names=["l_returnflag", "l_linestatus", "qty_c"],
        )

    fine = grouped_agg(
        ds.map_batches(widen, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"], ["qty_c"],
    ).to_pandas()
    lvl1 = fine.groupby("l_returnflag", as_index=False).agg(
        qty_c=("qty_c", "sum"), n=("n", "sum")
    )
    lvl1["l_linestatus"] = "ALL"
    lvl0 = pd.DataFrame(
        {"l_returnflag": ["ALL"], "l_linestatus": ["ALL"],
         "qty_c": [int(fine["qty_c"].sum())], "n": [int(fine["n"].sum())]}
    )
    allr = pd.concat([fine, lvl1, lvl0], ignore_index=True)
    allr["sum_qty"] = allr["qty_c"] / 100.0
    allr["n"] = allr["n"].astype(np.int64)
    return allr[["l_returnflag", "l_linestatus", "sum_qty", "n"]].sort_values(
        ["l_returnflag", "l_linestatus"]
    ).reset_index(drop=True)


def lineitem_cube(sf_dir: str) -> pd.DataFrame:
    """Full GROUPING SETS lattice (GROUP BY CUBE shape): quantity sum +
    row count at (returnflag, linestatus), per returnflag, per
    linestatus, and grand total, rolled-up columns labelled 'ALL'.

    Scale shape: identical to :func:`lineitem_rollup` — ONE distributed
    partial-agg pass at the finest grouping; every coarser lattice level
    re-aggregates that O(groups)-row result on the driver, never the
    input. CUBE adds only the (ALL, linestatus) level to ROLLUP's chain."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity"])

    def widen(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["l_returnflag"].combine_chunks(), t["l_linestatus"].combine_chunks(),
             _cents(t["l_quantity"])],
            names=["l_returnflag", "l_linestatus", "qty_c"],
        )

    fine = grouped_agg(
        ds.map_batches(widen, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"], ["qty_c"],
    ).to_pandas()

    def coarsen(by: list[str]) -> pd.DataFrame:
        if not by:
            g = pd.DataFrame(
                {"qty_c": [int(fine["qty_c"].sum())], "n": [int(fine["n"].sum())]}
            )
        else:
            g = fine.groupby(by, as_index=False).agg(
                qty_c=("qty_c", "sum"), n=("n", "sum")
            )
        for c in ("l_returnflag", "l_linestatus"):
            if c not in by:
                g[c] = "ALL"
        return g

    allr = pd.concat(
        [fine, coarsen(["l_returnflag"]), coarsen(["l_linestatus"]), coarsen([])],
        ignore_index=True,
    )
    allr["sum_qty"] = allr["qty_c"] / 100.0
    allr["n"] = allr["n"].astype(np.int64)
    return allr[["l_returnflag", "l_linestatus", "sum_qty", "n"]].sort_values(
        ["l_returnflag", "l_linestatus"]
    ).reset_index(drop=True)


def events_corr_stats(sf_dir: str) -> pd.DataFrame:
    """Pearson correlation per event type between the value column and the
    integer 'k' field of the JSON props — computed from EXACT integer
    sufficient statistics (sum x, y, xy, x2, y2 on cents) folded by one
    distributed partial-agg pass, then combined with a fixed IEEE-double
    expression mirrored term-for-term by the SQL twin, so both sides
    produce bit-identical doubles regardless of partitioning."""
    import re as re_

    ds = _read(sf_dir, "events", ["event_type", "value", "props"])
    k_re = re_.compile(r'"k":\s*(\d+)')

    def widen(t: pa.Table) -> pa.Table:
        x = _cents_np(t.column("value").to_numpy(zero_copy_only=False))
        y = np.fromiter(
            (
                int(m.group(1)) if (m := k_re.search(p or "")) else 0
                for p in t.column("props").to_pylist()
            ),
            dtype=np.int64,
            count=t.num_rows,
        )
        return pa.Table.from_arrays(
            [t["event_type"].combine_chunks(), pa.array(x), pa.array(y),
             pa.array(x * y), pa.array(x * x), pa.array(y * y)],
            names=["event_type", "x", "y", "xy", "x2", "y2"],
        )

    agg = grouped_agg(
        ds.map_batches(widen, batch_format="pyarrow"),
        ["event_type"], ["x", "y", "xy", "x2", "y2"],
    ).to_pandas()
    nf = agg["n"].astype(np.float64)
    sx = agg["x"].astype(np.float64)
    sy = agg["y"].astype(np.float64)
    sxy = agg["xy"].astype(np.float64)
    sxx = agg["x2"].astype(np.float64)
    syy = agg["y2"].astype(np.float64)
    corr = (nf * sxy - sx * sy) / np.sqrt(nf * sxx - sx * sx) / np.sqrt(
        nf * syy - sy * sy
    )
    out = pd.DataFrame(
        {"event_type": agg["event_type"], "n": agg["n"].astype(np.int64),
         "corr_vk": corr}
    )
    return out.sort_values("event_type").reset_index(drop=True)


def _typed_users(ds: rd.Dataset, etype: str) -> rd.Dataset:
    def flt(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["event_type"], etype)).select(["user_id"])

    return ds.map_batches(flt, batch_format="pyarrow")


def users_purchase_and_error(sf_dir: str) -> pd.DataFrame:
    """SQL INTERSECT at corpus key cardinality: distinct users with at
    least one 'purchase' AND at least one 'error' event (distinct_set_op:
    hash-bucketed dedup + adaptive semi join — raw rows never shuffle)."""
    from .joins import distinct_set_op

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    out = distinct_set_op(
        _typed_users(ds, "purchase"), _typed_users(ds, "error"), on="user_id"
    ).to_pandas()
    if "user_id" not in out.columns:  # empty result drops the schema
        out = pd.DataFrame({"user_id": pd.Series([], dtype=np.int64)})
    out["user_id"] = out["user_id"].astype(np.int64)
    return out.sort_values("user_id").reset_index(drop=True)


def users_click_no_purchase(sf_dir: str) -> pd.DataFrame:
    """SQL EXCEPT at corpus key cardinality: distinct users with a 'click'
    event and NO 'purchase' event (distinct_set_op anti path)."""
    from .joins import distinct_set_op

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    out = distinct_set_op(
        _typed_users(ds, "click"), _typed_users(ds, "purchase"),
        on="user_id", anti=True,
    ).to_pandas()
    if "user_id" not in out.columns:  # empty result drops the schema
        out = pd.DataFrame({"user_id": pd.Series([], dtype=np.int64)})
    out["user_id"] = out["user_id"].astype(np.int64)
    return out.sort_values("user_id").reset_index(drop=True)


OUTER_VALUE_MIN = 150.0  # high-value threshold for the outer-join query


def users_click_purchase_outer(sf_dir: str) -> pd.DataFrame:
    """FULL OUTER join at user cardinality: per-user count of high-value
    clicks full-outer per-user count of high-value purchases — both
    orphan sides occur naturally (users with big clicks but no big
    purchases and vice versa) and missing sides coalesce to 0.

    Scale shape: because both join inputs derive from the SAME scan and
    partition on the SAME key, the join is FUSED into one conditional
    partial aggregation — each block emits per-user (n_clicks,
    n_purchases) partial rows (the per-block outer merge), and a single
    user-hash bucket shuffle sums them. One barrier instead of the naive
    plan's three (two grouped counts + a cogroup exchange); measured 3.5x
    at sf0.1. Independently-sourced tables use the general
    ``bucket_hash_join(how='outer')`` (unit-tested on its own)."""
    from ..stages.partial_agg import collect_table

    ds = _read(sf_dir, "events", ["user_id", "event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        big = pc.greater(t["value"], OUTER_VALUE_MIN)
        df = t.filter(big).select(["user_id", "event_type"]).to_pandas()
        wide = pd.DataFrame(
            {"n_clicks": df[df.event_type == "click"].groupby("user_id").size(),
             "n_purchases": df[df.event_type == "purchase"].groupby("user_id").size()}
        ).fillna(0).astype(np.int64)
        wide = wide[(wide.n_clicks > 0) | (wide.n_purchases > 0)]
        wide.index.name = "user_id"
        return _from_pandas(wide.reset_index())

    schema = pa.schema([("user_id", pa.int64()), ("n_clicks", pa.int64()),
                        ("n_purchases", pa.int64())])
    return (
        collect_table(
            grouped_agg(ds.map_batches(partial, batch_format="pyarrow"),
                        ["user_id"], ["n_clicks", "n_purchases"],
                        count_alias=None),
            schema,
        )
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )


def _events_hive_dir(sf_dir: str) -> str:
    """One-time hive-partitioned rewrite of the events table
    (``event_type=<v>/`` directories via ``write_parquet(partition_cols)``),
    cached under /tmp keyed by source dir — the resumable partitioned-sink
    layout the engine writes at scale, reused here as a PRUNABLE source."""
    import shutil

    key = _conv_cache_key(sf_dir, "events")
    out = os.path.join("/tmp", "ocr_ray_hive", key, "events")
    if os.path.isdir(out) and os.listdir(out):
        return out
    tmp = f"{out}.tmp-{os.getpid()}"  # per-process: concurrent cold-cache
    # converters must not interleave writes in a shared tmp dir
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    _read(sf_dir, "events", ["event_type", "ts", "value"]).write_parquet(
        tmp, partition_cols=["event_type"]
    )
    try:
        os.rename(tmp, out)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)  # concurrent winner exists
    return out


def events_hive_source(sf_dir: str) -> pd.DataFrame:
    """Partition-pruned source: daily count + exact-cents revenue of
    'purchase' events read from ONE hive partition directory — the scan
    never opens the other partitions' files (pruning by layout, the
    cheapest predicate pushdown there is). The SQL twin filters the
    original un-partitioned table, so a wrong or lossy partitioning
    flips the hash."""

    part_dir = os.path.join(_events_hive_dir(sf_dir), "event_type=purchase")
    ds = _read_parquet(part_dir, columns=["ts", "value"])

    def widen(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pc.strftime(t["ts"], format="%Y-%m-%d"), _cents(t["value"])],
            names=["day", "value_c"],
        )

    agg = grouped_agg(
        ds.map_batches(widen, batch_format="pyarrow"), ["day"], ["value_c"]
    ).to_pandas()
    agg["revenue"] = agg["value_c"] / 100.0
    agg["n"] = agg["n"].astype(np.int64)
    return agg[["day", "n", "revenue"]].sort_values("day").reset_index(drop=True)


def events_union_sources(sf_dir: str) -> pd.DataFrame:
    """UNION ALL across heterogeneous sources: the events table read from
    parquet UNIONED with the same table read back from its CSV round-trip,
    aggregated per type — every row counted twice iff both sources
    deliver identical rows (a lossy CSV decode or a dropped block flips
    the hash). Both sides are projected to ONE schema (event_type,
    value_c) BEFORE the union so the merged stream is block-uniform."""

    def widen(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["event_type"].combine_chunks(), _cents(t["value"])],
            names=["event_type", "value_c"],
        )

    pq_side = _read(sf_dir, "events", ["event_type", "value"]).map_batches(
        widen, batch_format="pyarrow"
    )
    csv_side = rd.read_csv(_events_csv_dir(sf_dir)).map_batches(
        widen, batch_format="pyarrow"
    )
    agg = grouped_agg(
        pq_side.union(csv_side), ["event_type"], ["value_c"]
    ).to_pandas()
    agg["sum_value"] = agg["value_c"] / 100.0
    agg["n"] = agg["n"].astype(np.int64)
    return agg[["event_type", "n", "sum_value"]].sort_values(
        "event_type"
    ).reset_index(drop=True)


def events_dow_hour(sf_dir: str) -> pd.DataFrame:
    """Time-part histogram: event count + exact-cents value sum per
    (day-of-week, hour-of-day) — the classic activity heatmap.

    Part extraction is vectorized Arrow (``day_of_week(week_start=7,
    count_from_zero=True)`` == DuckDB's Sunday-0 ``dayofweek``); the key
    space is fixed at 7x24 = 168 cells, so per-block partials shrink each
    block to <=168 rows before the tiny grouped fold."""

    ds = _read(sf_dir, "events", ["ts", "value"])

    def widen(t: pa.Table) -> pa.Table:
        dow = pc.cast(
            pc.day_of_week(t["ts"], count_from_zero=True, week_start=7),
            pa.int64(),
        )
        hour = pc.cast(pc.hour(t["ts"]), pa.int64())
        return pa.Table.from_arrays(
            [dow, hour, _cents(t["value"])], names=["dow", "hour", "value_c"]
        )

    agg = grouped_agg(
        ds.map_batches(widen, batch_format="pyarrow"), ["dow", "hour"], ["value_c"]
    ).to_pandas()
    agg["sum_value"] = agg["value_c"] / 100.0
    agg["n"] = agg["n"].astype(np.int64)
    return agg[["dow", "hour", "n", "sum_value"]].sort_values(
        ["dow", "hour"]
    ).reset_index(drop=True)


ZSCORE_THRESHOLD = 3  # flag |value - mean| > 3 sigma (population sigma)


def events_zscore_outliers(sf_dir: str) -> pd.DataFrame:
    """Anomaly flagging: events whose value is more than 3 population
    standard deviations from their event type's mean — the data-cleaning
    pass a training pipeline runs before ingesting a metric column.

    Scale shape: one tiny sufficient-stats reduction (n, sum-cents,
    sum-of-squared-cents per type — O(types) rows via per-block partials),
    broadcast back, then a stateless vectorized filter pass. The 3-sigma
    predicate is evaluated on EXACT integer sufficient stats lifted to
    doubles in a fixed op order, (v*n - S)^2 > 9*(n*Q - S^2), so the SQL
    twin compares bit-identically with no float accumulation anywhere."""

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def suff(t: pa.Table) -> pa.Table:
        v = _cents(t["value"])
        return pa.Table.from_arrays(
            [t["event_type"].combine_chunks(), v, pc.multiply(v, v)],
            names=["event_type", "s_c", "q_c"],
        )

    stats = grouped_agg(
        ds.map_batches(suff, batch_format="pyarrow"), ["event_type"], ["s_c", "q_c"]
    ).to_pandas()  # O(types) rows
    lut = {
        r.event_type: (np.int64(r.n), np.int64(r.s_c), np.int64(r.q_c))
        for r in stats.itertuples()
    }
    ref = ray.put(lut)

    def flag(t: pa.Table) -> pa.Table:
        st = ray.get(ref)
        types = t["event_type"].to_pandas()
        # Series.map(dict) is pandas' C take-path — a lambda here would
        # be a per-row Python call, three times per block
        n = types.map({k: v[0] for k, v in st.items()}).to_numpy(np.int64)
        s = types.map({k: v[1] for k, v in st.items()}).to_numpy(np.int64)
        q = types.map({k: v[2] for k, v in st.items()}).to_numpy(np.int64)
        v = _cents(t["value"]).to_numpy()
        lhs = (v * n - s).astype(np.float64)
        rhs = (ZSCORE_THRESHOLD ** 2) * (
            n.astype(np.float64) * q.astype(np.float64)
            - s.astype(np.float64) * s.astype(np.float64)
        )
        return t.filter(pa.array(lhs * lhs > rhs))

    out = (
        ds.map_batches(flag, batch_format="pyarrow")
        .to_pandas()  # outlier rows only (tail of the distribution)
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    return out[["event_id", "event_type", "value"]]


Q6_SHIP_FROM = "1996-01-01"
Q6_SHIP_TO = "1997-01-01"


def lineitem_q6(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q6 (forecasting revenue change): revenue that would have
    been gained by eliminating discounts of 5-7% on small (<24 qty) 1996
    shipments — ``sum(extendedprice * discount)`` under a tight filter.

    Scale shape: the shipdate range is pushed INTO the parquet scan
    (row-group stats prune whole groups); the discount/quantity cuts and
    the exact cents*cents product run vectorized per block; the global
    reduction ships one partial row per block."""
    import pyarrow.dataset as pads

    ds = _read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_extendedprice", "l_discount", "l_quantity"],
        filter=(
            (pads.field("l_shipdate") >= pd.Timestamp(Q6_SHIP_FROM))
            & (pads.field("l_shipdate") < pd.Timestamp(Q6_SHIP_TO))
        ),
    )

    def partial(t: pa.Table) -> pa.Table:
        disc_c = _cents(t["l_discount"])
        keep = pc.and_(
            pc.and_(pc.greater_equal(disc_c, 5), pc.less_equal(disc_c, 7)),
            pc.less(t["l_quantity"], 24.0),
        )
        f = t.filter(keep)
        rev = pc.multiply(_cents(f["l_extendedprice"]), _cents(f["l_discount"]))
        return pa.Table.from_pydict(
            {"rev_c4": [pc.sum(rev, min_count=0).as_py() or 0],
             "n_items": [f.num_rows]}
        )

    part = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return pd.DataFrame(
        {"revenue": [part["rev_c4"].sum() / 10000.0],
         "n_items": [np.int64(part["n_items"].sum())]}
    )


HIST_BIN_C = 5000  # 50.00 value units per equi-width bin (cents)


def events_value_hist(sf_dir: str) -> pd.DataFrame:
    """Equi-width histogram of the value column: per 50-unit bin the row
    count, exact-cents sum, and the (exact, accumulation-free) min/max —
    the distribution profile pass run before choosing filter thresholds.

    Scale shape: bin ids are one vectorized floor-division; the bin space
    is value-range-bounded (~10 bins here), so per-block partials shrink
    every block to O(bins) rows before a tiny grouped fold."""
    ds = _read(sf_dir, "events", ["value"])

    def partial(t: pa.Table) -> pa.Table:
        v_c = _cents(t["value"]).to_numpy()
        v = t["value"].to_numpy(zero_copy_only=False)
        g = pd.DataFrame({"bin": v_c // HIST_BIN_C, "value_c": v_c, "v": v})
        out = g.groupby("bin", as_index=False).agg(
            n=("v", "size"), value_c=("value_c", "sum"),
            vmin=("v", "min"), vmax=("v", "max"),
        )
        return _from_pandas(out)

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bin")
        .aggregate(
            Sum("n", alias_name="n"), Sum("value_c", alias_name="value_c"),
            Min("vmin", alias_name="vmin"), Max("vmax", alias_name="vmax"),
        )
        .to_pandas()
    )
    agg["sum_value"] = agg["value_c"] / 100.0
    agg["n"] = agg["n"].astype(np.int64)
    agg["bin"] = agg["bin"].astype(np.int64)
    return agg[["bin", "n", "sum_value", "vmin", "vmax"]].sort_values(
        "bin"
    ).reset_index(drop=True)


def orders_monthly_growth(sf_dir: str) -> pd.DataFrame:
    """Month-over-month revenue series: per order month the order count,
    exact-cents revenue, and the previous month's revenue (LAG) — the
    time-series reporting shape.

    Scale shape: the heavy reduction is per-month partials (O(months)
    rows per block); only the calendar-bounded month table reaches the
    driver, where the LAG is a shift over a sorted tiny frame."""

    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def widen(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pc.strftime(t["o_orderdate"], format="%Y-%m"),
             _cents(t["o_totalprice"])],
            names=["month", "price_c"],
        )

    agg = grouped_agg(
        ds.map_batches(widen, batch_format="pyarrow"), ["month"], ["price_c"]
    ).to_pandas().sort_values("month", kind="mergesort").reset_index(drop=True)
    out = pd.DataFrame(
        {"month": agg["month"], "n_orders": agg["n"].astype(np.int64),
         "revenue": agg["price_c"] / 100.0}
    )
    out["prev_revenue"] = out["revenue"].shift(1)
    return out


def docs_longest_per_lang(sf_dir: str) -> pd.DataFrame:
    """Grouped argmax: the single longest document of each language
    (ties -> lowest doc_id) — the per-group representative-pick shape.

    Scale shape: the shared grouped_topn kernel with n=1 — each block
    cuts to one candidate per language before the shuffle, so at most
    O(blocks * langs) rows move."""
    from ..stages.partial_agg import grouped_topn

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    out = grouped_topn(
        ds, "lang", [("n_chars", "descending"), ("doc_id", "ascending")], 1,
        pa.schema([("lang", pa.string()), ("doc_id", pa.int64()),
                   ("n_chars", pa.int64())]),
    ).to_pandas()
    return out.drop(columns=["rank"]).sort_values("lang").reset_index(drop=True)


def events_type_share(sf_dir: str) -> pd.DataFrame:
    """Percent-of-total: each event type's share of the total value —
    the window-function SUM() OVER () shape computed as one tiny grouped
    reduction plus an exact double division of exact integer cents (no
    float accumulation, so the twin matches bit-for-bit)."""

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def widen(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["event_type"].combine_chunks(), _cents(t["value"])],
            names=["event_type", "value_c"],
        )

    agg = grouped_agg(
        ds.map_batches(widen, batch_format="pyarrow"), ["event_type"], ["value_c"]
    ).to_pandas()
    total = float(agg["value_c"].sum())
    out = pd.DataFrame(
        {"event_type": agg["event_type"], "n": agg["n"].astype(np.int64),
         "sum_value": agg["value_c"] / 100.0,
         "share": agg["value_c"].astype(np.float64) / total}
    )
    return out.sort_values("event_type").reset_index(drop=True)


def events_hdr_quantiles(sf_dir: str) -> pd.DataFrame:
    """Approximate per-type p50/p90/p99 of ``value`` via the mergeable
    HDR-histogram sketch (integer log2 buckets, ocr_ray.functions.sketch).

    Unlike the exact per-group sort (events_value_quantiles), the sketch
    never moves raw values: each block emits (key, bucket) count partials
    into a value-range-bounded bucket space, one grouped sum reconciles
    them, and the quantile pick is O(keys * buckets). Bucket assignment is
    PURE int64 arithmetic, so the SQL twin replays it exactly — an
    approximate sketch with an exact oracle."""
    from ..functions.sketch import hdr_quantiles_by_key
    from ..money import cents as _c

    ds = _read(sf_dir, "events", ["event_type", "value"])
    out = hdr_quantiles_by_key(
        ds, "event_type", lambda t: _c(t.column("value")).to_numpy(),
        [(1, 2), (9, 10), (99, 100)],
    )
    out["n"] = out["n"].astype(np.int64)
    return out.sort_values("event_type").reset_index(drop=True)


def events_spearman(sf_dir: str) -> pd.DataFrame:
    """Spearman rank correlation between ``value`` and the ``props``
    JSON field ``k`` — tie-aware (fractional average ranks), computed
    exactly.

    Scale shape: global average ranks need global tie counts, but both
    columns have value-range-bounded domains, so pass 1 reduces to
    per-column distinct-value counts (ONE grouped sum for both columns,
    tagged), the driver builds the value -> 2*avg_rank integer map
    (2*avg_rank = 2*count_below + count + 1, always integral) and ships
    it once via ray.put; pass 2 emits one integer sufficient-stats row
    per block. All sums are exact integers (per-block int64 partials are
    safe through n ~ 10^6 x rank^2; the cross-block combine runs in
    Python bignums), floats appear only in the final division — the SQL
    twin mirrors the op chain exactly."""
    import re as re_

    import ray
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["value", "props"])
    k_re = re_.compile(r'"k":\s*(\d+)')

    def widen(t: pa.Table) -> pa.Table:
        ks = np.fromiter(
            (
                int(m.group(1)) if (m := k_re.search(p or "")) else 0
                for p in t.column("props").to_pylist()
            ),
            dtype=np.int64,
            count=t.num_rows,
        )
        return pa.Table.from_arrays(
            [_cents(t["value"]), pa.array(ks)], names=["v", "k"]
        )

    # materialized: the rank-count pass AND the sufficient-stats pass
    # both read base, and widen's per-row regex extraction is the
    # dominant cost — lineage re-execution would run it twice
    base = ds.map_batches(widen, batch_format="pyarrow").materialize()

    def cnt_partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        parts = []
        for col in ("v", "k"):
            g = df.groupby(col, as_index=False).size()
            g.columns = ["val", "cnt"]
            g.insert(0, "col", col)
            parts.append(g)
        return _from_pandas(pd.concat(parts))

    counts = (
        base.map_batches(cnt_partial, batch_format="pyarrow")
        .groupby(["col", "val"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()
    )

    maps = {}
    for col, g in counts.groupby("col"):
        g = g.sort_values("val")
        cnt = g["cnt"].to_numpy(np.int64)
        below = np.concatenate([[0], np.cumsum(cnt)[:-1]])
        maps[col] = dict(zip(g["val"].to_numpy(np.int64), 2 * below + cnt + 1))
    maps_ref = ray.put(maps)

    def stats_partial(df: pd.DataFrame) -> pd.DataFrame:
        m = ray.get(maps_ref)
        rv = df["v"].map(m["v"]).to_numpy(np.int64)
        rk = df["k"].map(m["k"]).to_numpy(np.int64)
        return pd.DataFrame(
            {"n": [len(df)], "sr": [int(rv.sum())], "sk": [int(rk.sum())],
             "srk": [int((rv * rk).sum())], "sr2": [int((rv * rv).sum())],
             "sk2": [int((rk * rk).sum())]}
        )

    p = base.map_batches(stats_partial, batch_format="pandas").to_pandas()

    def _bigsum(col: str) -> int:
        # Python-bignum combine: a plain int64 .sum() would silently wrap
        # once total rank products pass 2^63 (n ~ 1.9M events)
        return sum(int(x) for x in p[col])

    n = _bigsum("n")
    sr, sk = _bigsum("sr"), _bigsum("sk")
    srk, sr2, sk2 = _bigsum("srk"), _bigsum("sr2"), _bigsum("sk2")
    import math

    rho = float(n * srk - sr * sk) / math.sqrt(
        float(n * sr2 - sr * sr) * float(n * sk2 - sk * sk)
    )
    return pd.DataFrame({"n": [np.int64(n)], "spearman": [rho]})


def events_trend(sf_dir: str) -> pd.DataFrame:
    """Per-type linear trend: least-squares slope and intercept of event
    value (cents) against epoch day — grouped simple regression.

    Scale shape: one pass of per-block integer sufficient-stat partials
    (n, Sx, Sy, Sxy, Sxx per type; epoch days and cents are exact int64),
    one tiny grouped sum, and the closed-form solution as doubles on the
    driver. The SQL twin states the same explicit formula — NOT DuckDB's
    regr_slope, whose internal accumulation order differs."""

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def widen(t: pa.Table) -> pa.Table:
        x = pc.cast(
            pc.floor(
                pc.divide(
                    pc.cast(t["ts"], pa.int64()), 86_400_000_000
                )
            ),
            pa.int64(),
        )
        y = _cents(t["value"])
        return pa.Table.from_arrays(
            [t["event_type"].combine_chunks(), x, y,
             pc.multiply(x, y), pc.multiply(x, x)],
            names=["event_type", "x", "y", "xy", "xx"],
        )

    agg = grouped_agg(
        ds.map_batches(widen, batch_format="pyarrow"),
        ["event_type"], ["x", "y", "xy", "xx"],
    ).to_pandas()
    n = agg["n"].astype(object)  # python ints: exact cross-products
    sx, sy = agg["x"].astype(object), agg["y"].astype(object)
    sxy, sxx = agg["xy"].astype(object), agg["xx"].astype(object)
    num = (n * sxy - sx * sy).astype(np.float64)
    den = (n * sxx - sx * sx).astype(np.float64)
    slope = num / den
    intercept = (sy.astype(np.float64) - slope * sx.astype(np.float64)) / n.astype(
        np.float64
    )
    out = pd.DataFrame(
        {"event_type": agg["event_type"], "n": agg["n"].astype(np.int64),
         "slope_c": slope, "intercept_c": intercept}
    )
    return out.sort_values("event_type").reset_index(drop=True)


def events_daily_dense(sf_dir: str) -> pd.DataFrame:
    """Calendar densification: the FULL day x event_type grid between the
    corpus's first and last day, zero-filled where no events happened —
    gap-free time series for downstream window math.

    Scale shape: the sparse side reduces to per-(day, type) count/sum
    partials (bounded by calendar x types, not events); the dense grid is
    generated driver-side at that same bounded size and left-merged.
    Nothing driver-side scales with event count."""

    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def widen(t: pa.Table) -> pa.Table:
        day = pc.cast(pc.floor_temporal(t["ts"], unit="day"), pa.date32())
        return pa.Table.from_arrays(
            [day, t["event_type"].combine_chunks(), _cents(t["value"])],
            names=["day", "event_type", "value_c"],
        )

    agg = grouped_agg(
        ds.map_batches(widen, batch_format="pyarrow"), ["day", "event_type"],
        ["value_c"],
    ).to_pandas()  # bounded: days x types
    agg["day"] = pd.to_datetime(agg["day"])
    days = pd.date_range(agg["day"].min(), agg["day"].max(), freq="D")
    types = sorted(agg["event_type"].unique())
    grid = pd.MultiIndex.from_product(
        [days, types], names=["day", "event_type"]
    ).to_frame(index=False)
    out = grid.merge(agg, on=["day", "event_type"], how="left")
    out["n"] = out["n"].fillna(0).astype(np.int64)
    out["sum_value"] = out["value_c"].fillna(0).astype(np.int64) / 100.0
    out["day"] = out["day"].dt.strftime("%Y-%m-%d")
    return (
        out[["day", "event_type", "n", "sum_value"]]
        .sort_values(["day", "event_type"])
        .reset_index(drop=True)
    )


CATALOG_TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def catalog_stats(sf_dir: str) -> pd.DataFrame:
    """Catalog statistics: row and column counts for every table.

    Scale shape: METADATA-ONLY — parquet footers serve both numbers
    without scanning a single data page, exactly how a catalog service
    answers at 100 TB."""
    import pyarrow.parquet as pq

    rows = []
    for t in CATALOG_TABLES:
        f = pq.ParquetFile(os.path.join(sf_dir, f"{t}.parquet"))
        rows.append(
            {"table_name": t,
             "n_rows": np.int64(f.metadata.num_rows),
             "n_cols": np.int64(f.metadata.num_columns)}
        )
    return (
        pd.DataFrame(rows).sort_values("table_name").reset_index(drop=True)
    )


FK_CONSTRAINTS = [
    # (name, child table, fk col, parent table, pk col)
    ("orders.custkey->customer", "orders", "o_custkey", "customer", "c_custkey"),
    ("lineitem.orderkey->orders", "lineitem", "l_orderkey", "orders", "o_orderkey"),
    ("lineitem.partkey->part", "lineitem", "l_partkey", "part", "p_partkey"),
    ("lineitem.suppkey->supplier", "lineitem", "l_suppkey", "supplier", "s_suppkey"),
    ("customer.nationkey->nation", "customer", "c_nationkey", "nation", "n_nationkey"),
    ("supplier.nationkey->nation", "supplier", "s_nationkey", "nation", "n_nationkey"),
    ("nation.regionkey->region", "nation", "n_regionkey", "region", "r_regionkey"),
]


def fk_integrity_audit(sf_dir: str) -> pd.DataFrame:
    """Referential-integrity audit: for every declared FK edge, the
    number of child rows whose key has no parent — the data-quality gate
    a pipeline runs before joining tables it did not produce.

    Scale shape: the parquet footer's row count (free — no scan) gates
    each edge through the same adaptive strategy as every other
    membership test in the engine: a dimension-sized parent broadcasts
    its key set once and the child scan reduces to per-block orphan
    counts; a fact-sized parent (e.g. orders under lineitem.orderkey)
    stays a Dataset and membership runs through semi_anti_join's
    partitioned cogroup path — no O(|parent|) driver or object-store
    structure on either side."""
    import pyarrow.parquet as pq

    import ray

    from . import joins

    rows = []
    for name, child, fk, parent, pk in FK_CONSTRAINTS:
        parent_path = os.path.join(sf_dir, f"{parent}.parquet")
        n_parent = pq.ParquetFile(parent_path).metadata.num_rows
        ds = _read(sf_dir, child, [fk])
        if n_parent > joins._BROADCAST_KEY_LIMIT:
            n = joins.semi_anti_join(
                ds, _read(sf_dir, parent, [pk]), on=fk, anti=True,
                assume_distinct=True,  # pk is unique by construction
            ).count()
            rows.append(
                {"constraint_name": name, "n_orphans": np.int64(n)}
            )
            continue
        keys = pq.read_table(parent_path, columns=[pk]).column(pk).to_numpy()
        keys_ref = ray.put(keys)

        def orphans(t: pa.Table, _fk=fk, _ref=keys_ref) -> pa.Table:
            v = t.column(_fk).to_numpy(zero_copy_only=False)
            n = int((~np.isin(v, ray.get(_ref))).sum())
            return pa.Table.from_pydict({"n": [n]})

        part = ds.map_batches(orphans, batch_format="pyarrow").to_pandas()
        rows.append(
            {"constraint_name": name,
             "n_orphans": np.int64(part["n"].sum())}
        )
    return (
        pd.DataFrame(rows).sort_values("constraint_name")
        .reset_index(drop=True)
    )


WINSOR_LO = (1, 100)   # p1
WINSOR_HI = (99, 100)  # p99


def events_winsorized_stats(sf_dir: str) -> pd.DataFrame:
    """Winsorized per-type statistics: clip values at the [p1, p99]
    thresholds READ FROM THE MERGEABLE HDR SKETCH (floored to integer
    cents), then exact integer sufficient stats of the clipped values —
    the outlier-robust aggregation a quality pipeline runs, composed
    from two stages that both replay exactly in SQL.

    Scale shape: pass 1 = the HDR bucket-count reduction (bounded bucket
    space); thresholds broadcast as a tiny per-type dict; pass 2 = one
    clip+sufficient-stats partial per block."""
    import ray
    from ray.data.aggregate import Sum

    from ..functions.sketch import hdr_bucket, hdr_rep_c

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def bucket_partial(t: pa.Table) -> pa.Table:
        g = (
            pd.DataFrame(
                {"event_type": t.column("event_type").to_pandas(),
                 "bucket": hdr_bucket(_cents(t["value"]).to_numpy())}
            )
            .groupby(["event_type", "bucket"], as_index=False)
            .size()
            .rename(columns={"size": "cnt"})
        )
        return _from_pandas(g)

    counts = (
        ds.map_batches(bucket_partial, batch_format="pyarrow")
        .groupby(["event_type", "bucket"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()
        .sort_values(["event_type", "bucket"], kind="mergesort")
    )

    thresholds = {}
    for k, g in counts.groupby("event_type", sort=True):
        cnt = g["cnt"].to_numpy(np.int64)
        cum = np.cumsum(cnt)
        n = int(cum[-1])
        picks = []
        for num, den in (WINSOR_LO, WINSOR_HI):
            r = (num * n + den - 1) // den
            idx = int(np.searchsorted(cum, r, side="left"))
            rep = hdr_rep_c(g["bucket"].to_numpy(np.int64)[idx:idx + 1])[0]
            picks.append(int(np.floor(rep)))  # integer cents threshold
        thresholds[k] = tuple(picks)
    thr_ref = ray.put(thresholds)

    def stats_partial(t: pa.Table) -> pa.Table:
        thr = ray.get(thr_ref)
        df = pd.DataFrame(
            {"event_type": t.column("event_type").to_pandas(),
             "v": _cents(t["value"]).to_numpy()}
        )
        lo = df["event_type"].map({k: v[0] for k, v in thr.items()})
        hi = df["event_type"].map({k: v[1] for k, v in thr.items()})
        w = np.minimum(np.maximum(df["v"].to_numpy(), lo.to_numpy()),
                       hi.to_numpy())
        g = (
            pd.DataFrame({"event_type": df["event_type"], "s": w,
                          "q": w * w})
            .groupby("event_type", as_index=False)
            .agg(n=("s", "size"), s=("s", "sum"), q=("q", "sum"))
        )
        return _from_pandas(g)

    agg = (
        ds.map_batches(stats_partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("n", alias_name="n"), Sum("s", alias_name="s"),
                   Sum("q", alias_name="q"))
        .to_pandas()
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    n = agg["n"].astype(object)
    s, q = agg["s"].astype(object), agg["q"].astype(object)
    lo_c = agg["event_type"].map({k: v[0] for k, v in thresholds.items()})
    hi_c = agg["event_type"].map({k: v[1] for k, v in thresholds.items()})
    return pd.DataFrame(
        {"event_type": agg["event_type"], "n": agg["n"].astype(np.int64),
         "lo_c": lo_c.astype(np.int64), "hi_c": hi_c.astype(np.int64),
         "mean_w": (s.astype(np.float64) / n.astype(np.float64)) / 100.0,
         "var_w": (n * q - s * s).astype(np.float64)
                  / (n * (n - 1)).astype(np.float64) / 10000.0}
    )


def revenue_pareto(sf_dir: str) -> pd.DataFrame:
    """Pareto concentration: the smallest set of top customers whose
    orders cover >= 80% of all revenue — one row: how many customers,
    their share of the customer base, and the exact revenue share at the
    crossing.

    Scale shape: per-customer revenue reduces via partial sums; ONE
    range-partitioning sort (rev desc, custkey) over that grouped table
    through the shared carry-scan
    (:func:`ocr_ray.stages.carry_scan.sorted_carry_scan`, carry = rows
    and revenue before the block), where ONLY the block containing the
    80% crossing emits the answer row. The crossing threshold is the
    exact integer ceil(4*total/5), so block boundaries cannot mis-place
    it."""

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def widen(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["o_custkey"].combine_chunks(), _cents(t["o_totalprice"])],
            names=["o_custkey", "r"],
        )

    rev = grouped_agg(
        orders.map_batches(widen, batch_format="pyarrow"), ["o_custkey"], ["r"],
        count_alias=None,
    ).materialize()

    n_cust = rev.count()
    _OUT = pa.schema([("n_top", pa.int64()), ("rev_cum", pa.int64()),
                      ("total", pa.int64())])

    def crossing(t: pa.Table, carry, final) -> pa.Table:
        if t.num_rows == 0:
            return _OUT.empty_table()
        (co, ro), total = carry, final[1]
        thresh = (4 * total + 4) // 5  # ceil(0.8 * total), exact integer
        cum = ro + np.cumsum(t.column("r").to_numpy())
        if ro >= thresh or cum[-1] < thresh:
            return _OUT.empty_table()  # crossing is not in this block
        i = int(np.searchsorted(cum, thresh, side="left"))
        return pa.Table.from_pydict(
            {"n_top": [co + i + 1], "rev_cum": [int(cum[i])], "total": [total]},
            schema=_OUT,
        )

    hit = sorted_carry_scan(
        rev,
        ["r", "o_custkey"],
        descending=[True, False],
        block_stat=lambda t: (t.num_rows, pc.sum(t.column("r")).as_py()),
        init=(0, 0),
        fold=lambda s, b: (s[0] + b[0], s[1] + b[1]),
        apply_fn=crossing,
    ).to_pandas()
    assert len(hit) == 1, hit
    n_top, rev_cum, total = (int(hit[c].iloc[0]) for c in _OUT.names)
    return pd.DataFrame(
        {"n_top_customers": [np.int64(n_top)],
         "n_customers": [np.int64(n_cust)],
         "customer_share": [float(n_top) / float(n_cust)],
         "revenue_share": [float(rev_cum) / float(total)]}
    )


def orders_open_per_day(sf_dir: str) -> pd.DataFrame:
    """Sweep-line interval counting: how many orders are OPEN (ordered
    but not yet fully shipped) on each calendar day — interval [order
    date, max lineitem shipdate] per order, counted by day.

    Scale shape: the interval endpoints reduce per order via one grouped
    max (partial combine); each interval then collapses to TWO delta
    events (+1 at start, -1 after end) regardless of its length — the
    sweep — and the per-day delta sum is calendar-bounded, so the final
    running cumsum over days runs driver-side on O(days) rows. No
    interval is ever expanded to its covered days."""
    from ray.data.aggregate import Max, Sum

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    # materialized: the join's schema probe would re-run the grouped max
    ship = (
        li.groupby("l_orderkey")
        .aggregate(Max("l_shipdate", alias_name="ship_end"))
        .materialize()
    )
    from .joins import bucket_hash_join

    o2 = orders.map_batches(
        lambda t: t.rename_columns(["l_orderkey", "o_orderdate"]),
        batch_format="pyarrow",
    )
    joined = bucket_hash_join(o2, ship, on="l_orderkey")

    def deltas(df: pd.DataFrame) -> pd.DataFrame:
        start = pd.to_datetime(df["o_orderdate"]).dt.floor("D")
        # the synthetic generator draws shipdates independently, so an
        # order's last shipment can precede its order date — clamp the
        # interval end to the start (open at least its order day)
        end = np.maximum(
            pd.to_datetime(df["ship_end"]).dt.floor("D"), start
        )
        d = pd.concat(
            [pd.DataFrame({"day": start, "delta": 1}),
             pd.DataFrame({"day": end + pd.Timedelta(days=1), "delta": -1})]
        )
        return d.groupby("day", as_index=False)["delta"].sum()

    agg = (
        joined.map_batches(deltas, batch_format="pandas")
        .groupby("day")
        .aggregate(Sum("delta", alias_name="delta"))
        .to_pandas()  # calendar-bounded
        .sort_values("day")
    )
    agg["n_open"] = agg["delta"].cumsum().astype(np.int64)
    out = pd.DataFrame(
        {"day": pd.to_datetime(agg["day"]).dt.strftime("%Y-%m-%d"),
         "n_open": agg["n_open"]}
    )
    return out.reset_index(drop=True)


PROFILE_TABLES = ["events", "documents", "orders", "customer"]


def null_profile(sf_dir: str) -> pd.DataFrame:
    """Data profiling: per (table, column), row count and null count —
    the completeness check a pipeline runs before trusting a new drop.

    Scale shape: one pruned scan per table; each block emits ONE row per
    column (pyarrow null_count reads validity bitmaps, no value pass);
    the grouped sum is bounded by the schema width."""
    from ray.data.aggregate import Sum

    frames = []
    for tbl in PROFILE_TABLES:
        ds = _read(sf_dir, tbl, None)

        def profile(t: pa.Table, _tbl=tbl) -> pa.Table:
            names = t.column_names
            return pa.Table.from_pydict(
                {"table_name": [_tbl] * len(names),
                 "column_name": names,
                 "n_rows": [t.num_rows] * len(names),
                 "n_nulls": [t.column(c).null_count for c in names]}
            )

        agg = (
            ds.map_batches(profile, batch_format="pyarrow")
            .groupby(["table_name", "column_name"])
            .aggregate(Sum("n_rows", alias_name="n_rows"),
                       Sum("n_nulls", alias_name="n_nulls"))
            .to_pandas()
        )
        frames.append(agg)
    out = pd.concat(frames)
    out["n_rows"] = out["n_rows"].astype(np.int64)
    out["n_nulls"] = out["n_nulls"].astype(np.int64)
    return (
        out.sort_values(["table_name", "column_name"])
        .reset_index(drop=True)
    )


def events_assoc_rules(sf_dir: str) -> pd.DataFrame:
    """Association rules over per-user event-type baskets (market-basket
    support / confidence / lift, Agrawal et al. 1993): for each ordered
    type pair (ante -> cons), n_both = users with both types, support =
    n_both/N, confidence = n_both/n_ante, lift = n_both*N/(n_ante *
    n_cons); N = distinct users. Single integer divisions on both sides
    are bit-identical doubles, so emission rounds HALF-AWAY at 6 dp
    (DuckDB round — the events_ewma midpoint lesson).

    Scale shape: ONE bucketed grouped distinct collapses the event
    stream to (user, type) basket rows (types ~ 5, users ~ corpus);
    per-type counts fold from the basket rows; co-occurrence explodes
    each user's <=T^2 ordered pairs inside a user-hash bucket pass and
    folds by ONE tiny grouped sum (T^2 keys). No driver structure
    beyond O(T^2)."""
    from ..stages.partial_agg import add_hash_bucket

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    baskets = grouped_agg(
        ds, ["user_id", "event_type"], count_alias=None
    ).materialize()

    n_users = grouped_agg(
        baskets.select_columns(["user_id"]), ["user_id"],
        count_alias="n_t",
    ).count()

    na = (
        baskets.groupby("event_type").count().to_pandas()
        .set_index("event_type")["count()"].to_dict()
    )

    def pair_partial(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g) or "user_id" not in g.columns:
            return pd.DataFrame(
                {"ante": pd.Series([], dtype="object"),
                 "cons": pd.Series([], dtype="object"),
                 "n_both": pd.Series([], dtype="int64")}
            )
        m = g.merge(g, on="user_id", suffixes=("_a", "_b"))
        m = m[m["event_type_a"] != m["event_type_b"]]
        out = m.groupby(
            ["event_type_a", "event_type_b"], as_index=False
        ).size()
        return out.rename(columns={
            "event_type_a": "ante", "event_type_b": "cons",
            "size": "n_both"}).astype({"n_both": "int64"})

    co = (
        baskets.map_batches(
            lambda t: add_hash_bucket(t, ["user_id"], 64),
            batch_format="pyarrow",
        )
        .groupby("bucket")
        .map_groups(pair_partial, batch_format="pandas")
        .to_pandas()
        .groupby(["ante", "cons"], as_index=False)["n_both"].sum()
    )

    def r6(x: np.ndarray) -> np.ndarray:
        return np.sign(x) * np.floor(np.abs(x) * 1e6 + 0.5) / 1e6

    nb = co["n_both"].to_numpy(np.float64)
    n_ante = np.array([na[a] for a in co["ante"]], dtype=np.int64)
    n_cons = np.array([na[c] for c in co["cons"]], dtype=np.int64)
    out = pd.DataFrame({
        "ante": co["ante"],
        "cons": co["cons"],
        "n_both": co["n_both"].astype(np.int64),
        "n_ante": n_ante,
        "n_cons": n_cons,
        "support": r6(nb / n_users),
        "confidence": r6(nb / n_ante),
        "lift": r6(nb * float(n_users) / (n_ante * n_cons).astype(np.float64)),
    })
    return out.sort_values(["ante", "cons"]).reset_index(drop=True)

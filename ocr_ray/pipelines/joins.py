"""Join strategies (SURVEY.md §2.4 — the reference has only parent-key
gathers; these are the engine's general-purpose joins).

- Broadcast join: dimension side shipped once via ray.put, merged per
  batch (in relational.py — region_customer_stats, top_customers), and
  the below-gate paths of ``semi_anti_join`` / ``attach_key_map``.
- Partitioned hash join (``bucket_hash_join``, the one seam every
  large-large, semi/anti and salted join goes through): tag each side
  with a deterministic hash bucket on the key and a side marker, UNION
  ALL the two datasets (the Teradata join-over-union shape), group by
  bucket, and run one Arrow kernel per bucket that hash-joins only
  (key, row index) tables and gathers payload columns with ``take``.
  B buckets bound per-task memory; hot keys are salted into sub-buckets
  (``salted_bucket_join``, the FP-Hadoop hot-key split).
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

from ..stages.partial_agg import compact_nonempty, grouped_agg
from ..stages.partial_agg import from_pandas as _from_pandas

__all__ = [
    "bucket_hash_join",
    "order_lineitem_revenue",
    "segment_revenue_native",
    "semi_anti_join",
    "distinct_set_op",
    "orders_without_lineitems",
    "nation_revenue",
    "orders_above_cust_avg",
    "cust_order_counts",
    "q5_local_supplier_volume",
    "q3_shipping_priority",
    "q7_nation_flows",
    "q10_returned_items",
    "q14_promo_effect",
    "q18_big_orders",
    "q22_dormant_customers",
    "q4_late_shipments",
    "q8_market_share",
    "q13_order_count_distribution",
    "q17_small_quantity_revenue",
    "q15_top_supplier",
    "detect_hot_keys",
    "salted_bucket_join",
]


def _side_schema(ds: rd.Dataset, hints: dict | None = None) -> pa.Schema | None:
    """Arrow schema of one join side: from ``hints`` (column -> pandas
    dtype or pa.DataType, every column of the side) or else from
    ``ds.schema()``, whose types are Arrow for Arrow blocks and numpy
    dtypes or the ``object`` class for pandas blocks. ``object`` maps to
    string — the only object columns the engine joins are strings.
    ``None`` when the side has no schema: Ray Data never calls a map UDF
    on a 0-row block and passes it on schema-less, so such a side holds
    no rows."""
    if hints is None:
        sch = ds.schema()
        if sch is None:
            return None
        hints = dict(zip(sch.names, sch.types))

    def arrow_type(t) -> pa.DataType:
        if isinstance(t, pa.DataType):
            return t
        if t is object or t is str or t == "object":
            return pa.string()
        return pa.from_numpy_dtype(np.dtype(t))

    return pa.schema([(c, arrow_type(t)) for c, t in hints.items()])


_ACERO_HOW = {"inner": "inner", "left": "left outer", "outer": "full outer",
              "semi": "left semi", "anti": "left anti"}


def bucket_hash_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: "str | list[str]",
    right_on: "str | list[str] | None" = None,
    how: str = "inner",
    n_buckets: int = 64,
    left_dtypes: dict | None = None,
    right_dtypes: dict | None = None,
) -> rd.Dataset:
    """Partitioned hash join of two Datasets — the engine's one join seam.

    ``how`` is inner, left, outer, semi or anti (semi/anti emit the left
    rows that do / do not match). Each side is tagged (key cast to its
    declared type, hash ``bucket``, int8 ``__side``), the two sides are
    unioned and repartitioned to ``n_buckets`` blocks, and
    ``groupby("bucket").map_groups`` runs one Arrow kernel per bucket.
    Shuffle cost: one groupby over (left ∪ right) rows; no driver
    materialization. Non-key column names must be disjoint; when the key
    names differ both key columns are kept. Payload columns may be any
    Arrow type (``list<>``, binary): they never enter the hash join.

    CALLER NOTE: without explicit dtypes this probes ``left.schema()`` /
    ``right.schema()``. On a LAZY input whose plan contains an all-to-all
    (groupby/sort), that probe executes the whole upstream shuffle — and
    the result is NOT reused by the real execution, so the shuffle runs
    twice. Either materialize shuffle-bearing inputs first (see
    graph.pagerank_trade, which paid 8 s/iteration to this before
    restructuring) or pass ``left_dtypes``/``right_dtypes`` (column ->
    pandas dtype, INCLUDING the key) to skip that side's probe — the
    right call when the side should stream, not pin (e.g. a fact-sized
    semi-join output)."""
    from ..stages.partial_agg import add_hash_bucket

    lkeys = [on] if isinstance(on, str) else list(on)
    rkeys = lkeys if right_on is None else (
        [right_on] if isinstance(right_on, str) else list(right_on))
    lsch = _side_schema(left, left_dtypes)
    rsch = _side_schema(right, right_dtypes)
    if lsch is None or rsch is None:
        # a side without rows: an anti join keeps its left side; the join
        # is empty (0 rows and schema-less, as the join itself emits
        # them) when the left side is empty or the join is inner or semi
        if how == "anti" and lsch is not None:
            return left
        if how != "outer" and (lsch is None or how in ("inner", "semi")):
            return rd.from_items([])
        raise ValueError(f"a {how} join of a side without rows needs its dtypes")
    # both sides hash and join on the LEFT key types: a key float-promoted
    # by an upstream pandas stage would otherwise hash into different
    # buckets than the other side's int key (silent row loss)
    for lk, rk in zip(lkeys, rkeys):
        rsch = rsch.set(rsch.get_field_index(rk),
                        pa.field(rk, lsch.field(lk).type))
    same = lkeys == rkeys
    rkeep = [f for f in rsch if not (same and f.name in rkeys)]
    out_schema = pa.schema([*lsch, *rkeep])
    acero_how = _ACERO_HOW[how]
    kn = [f"__k{i}" for i in range(len(lkeys))]

    def tag(side: int, keys: list, sch: pa.Schema):
        def fn(t: pa.Table) -> pa.Table:
            t = add_hash_bucket(t.select(sch.names).cast(sch), keys, n_buckets)
            return t.append_column(
                "__side", pa.array(np.full(t.num_rows, side, np.int8)))

        return fn

    def rows(t: pa.Table, keys: list, idx: str) -> pa.Table:
        return pa.Table.from_arrays(
            [*(t[k] for k in keys), pa.array(np.arange(t.num_rows))],
            names=[*kn, idx],
        )

    def join_bucket(t: pa.Table) -> pa.Table:
        is_left = pc.equal(t["__side"], 0)
        l, r = t.filter(is_left), t.filter(pc.invert(is_left))
        # a bucket without rows of one side may also lack its columns
        l = l.select(lsch.names) if l.num_rows else lsch.empty_table()
        r = r.select(rsch.names) if r.num_rows else rsch.empty_table()
        # only (key, row index) enters Acero; payloads are gathered with
        # take. use_threads=False: Acero's default pool sizes to ALL host
        # cores PER TASK, oversubscribing the box under concurrent Ray
        # tasks — parallelism comes from Ray, one thread per bucket
        j = rows(l, lkeys, "__li").join(
            rows(r, rkeys, "__ri"), kn, None, acero_how, use_threads=False
        )
        lt = l.take(j["__li"])
        if how in ("semi", "anti"):
            return lt
        rt = r.take(j["__ri"])
        cols = [
            pc.coalesce(lt[c], rt[c]) if how == "outer" and same and c in lkeys
            else lt[c]
            for c in lsch.names
        ]
        cols += [rt[f.name] for f in rkeep]
        return pa.Table.from_arrays(cols, schema=out_schema)

    both = left.map_batches(tag(0, lkeys, lsch), batch_format="pyarrow").union(
        right.map_batches(tag(1, rkeys, rsch), batch_format="pyarrow")
    )
    # blocks = buckets before the sort exchange: the grouped stage has at
    # most n_buckets groups, and sort cost grows superlinearly with input
    # block count — without this, iterating joins (graph.pagerank_trade)
    # compounded block counts 128 -> 384 -> 640 across iterations.
    # The trailing map_batches never calls its UDF on a 0-row block; it
    # emits it schema-less. A kernel's 0-row block (a bucket with no
    # matches) would otherwise pass a downstream select_columns
    # unprojected (Ray 2.49), and the next join's schema probe would
    # read the dropped columns off it.
    return both.repartition(n_buckets).groupby("bucket").map_groups(
        join_bucket, batch_format="pyarrow"
    ).map_batches(lambda t: t, batch_format="pyarrow")


def segment_revenue_native(sf_dir: str) -> pd.DataFrame:
    """orders ⋈ customer on custkey, exact-cents order value by market
    segment, through the partitioned bucket join.

    Ray's native ``Dataset.join`` is not used: measured 3.1-6.3x slower
    than the bucket join (200k ⋈ 50k int keys, Ray 2.49 with num_cpus=4
    on a 4-vCPU Xeon VM, 4-8 partitions), and at 16 partitions its
    hash-shuffle aggregators ask for 14 GiB of memory — on a smaller
    cluster they are never scheduled and the query hangs."""
    orders = _read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey", "o_totalprice"]
    )

    def widen(t: pa.Table) -> pa.Table:
        price_c = _cents(t["o_totalprice"])
        return pa.Table.from_arrays(
            [t["o_custkey"].combine_chunks(), price_c], names=["o_custkey", "price_c"]
        )

    cust = _read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"],
    )
    joined = bucket_hash_join(
        orders.map_batches(widen, batch_format="pyarrow"), cust,
        on="o_custkey", right_on="c_custkey", n_buckets=16,
        left_dtypes={"o_custkey": np.int64, "price_c": np.int64},
        right_dtypes={"c_custkey": np.int64, "c_mktsegment": object},
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("c_mktsegment", as_index=False).agg(
            price_c=("price_c", "sum"), n_orders=("price_c", "size")
        )

    from ray.data.aggregate import Sum

    out = (
        joined.map_batches(partial, batch_format="pandas")
        .groupby("c_mktsegment")
        .aggregate(Sum("price_c", alias_name="price_c"), Sum("n_orders", alias_name="n_orders"))
        .to_pandas()
    )
    out["total_value"] = out["price_c"] / 100.0
    return out[["c_mktsegment", "n_orders", "total_value"]].sort_values(
        "c_mktsegment"
    ).reset_index(drop=True)


# adaptive strategy gate for semi/anti joins (same idiom as the dedup
# verify): at or below this many distinct build-side keys the exact set
# broadcasts; above it the partitioned cogroup join runs — driver memory
# stays bounded either way
_BROADCAST_KEY_LIMIT = 100_000


def semi_anti_join(
    probe: rd.Dataset, keys, on: str, anti: bool = False,
    assume_distinct: bool = False,
) -> rd.Dataset:
    """Exact semi/anti join with adaptive strategy.

    ``keys`` may be a sequence (always broadcast) or a Dataset with a
    single key column: below ``_BROADCAST_KEY_LIMIT`` distinct keys the
    exact set ships once via ray.put and the probe filters inside
    map_batches (no shuffle); above it the build side STAYS a Dataset and
    membership is decided by the partitioned bucket join's semi/anti
    kernel — no driver structure proportional to key count on either
    path.

    ``assume_distinct=True`` skips the dedup shuffle when the caller
    KNOWS the key column is already unique (a primary key, a grouped
    output) — one fewer sequential execution on the build side."""
    import ray

    if isinstance(keys, rd.Dataset):
        ksch = keys.schema()
        if ksch is None:  # zero-block build side: empty key set
            if anti:
                return probe
            return probe.map_batches(
                lambda t: t.slice(0, 0), batch_format="pyarrow"
            )
        kcol = ksch.names[0]
        if assume_distinct:
            distinct = compact_nonempty(keys.select_columns([kcol]))
        else:
            distinct = compact_nonempty(
                keys.groupby(kcol).count().select_columns([kcol])
            )
        n_keys = distinct.count()
        if n_keys > _BROADCAST_KEY_LIMIT:
            return bucket_hash_join(
                probe, distinct, on=on, right_on=kcol,
                how="anti" if anti else "semi",
                n_buckets=min(256, max(16, n_keys // 10_000)),
            )
        keys = distinct.to_pandas()[kcol]  # bounded by the gate

    kref = ray.put(np.asarray(sorted(set(keys))))

    def flt(t: pa.Table) -> pa.Table:
        ks = ray.get(kref)
        col = t.column(on).to_numpy(zero_copy_only=False)
        member = np.isin(col, ks)
        return t.filter(pa.array(~member if anti else member))

    return probe.map_batches(flt, batch_format="pyarrow")


def attach_key_map(
    facts: rd.Dataset,
    dim: rd.Dataset,
    on: str,
    value_cols: "str | list[str]",
    facts_dtypes: dict | None = None,
) -> rd.Dataset:
    """Attach dimension attribute(s) to a fact stream by integer key —
    the adaptive seam every fact->dimension hop goes through.

    ``dim`` is a Dataset of (``on``, *``value_cols``) with distinct
    keys. Below ``_BROADCAST_KEY_LIMIT`` keys, the (key, values) arrays
    ship once via ray.put and the attach is a vectorized searchsorted
    inside map_batches (no shuffle). Above it, the dimension STAYS a
    Dataset and the hop is the partitioned bucket join — pass
    ``facts_dtypes`` (column -> pandas dtype) when the fact side's plan
    holds an all-to-all so the join skips its schema probe. INNER
    semantics: fact rows with no dimension match are dropped (key
    integrity is the caller's contract, as with a SQL join). To use the
    dim as a key FILTER that also decorates, pre-filter the dim side."""
    import ray

    cols = [value_cols] if isinstance(value_cols, str) else list(value_cols)
    d = dim.materialize()
    n = d.count()
    if n <= _BROADCAST_KEY_LIMIT:
        dp = d.to_pandas().sort_values(on) if n else pd.DataFrame(
            {c: pd.Series([], dtype="int64") for c in (on, *cols)}
        )
        ref = ray.put(
            (dp[on].to_numpy(), {c: dp[c].to_numpy() for c in cols})
        )

        def attach(df: pd.DataFrame) -> pd.DataFrame:
            ks, vmap = ray.get(ref)
            col = df[on].to_numpy()
            if len(ks) == 0:
                hit = np.zeros(len(col), dtype=bool)
                idx = hit.astype(np.int64)
            else:
                idx = np.searchsorted(ks, col)
                idx[idx == len(ks)] = 0  # clamp; equality decides
                hit = ks[idx] == col
            out = df[hit].copy()
            for c in cols:
                out[c] = vmap[c][idx[hit]]
            return out

        return facts.map_batches(attach, batch_format="pandas")
    return bucket_hash_join(facts, d, on=on, left_dtypes=facts_dtypes)


def lookup_dim_rows(
    path: str, key_col: str, keys, columns: list[str]
) -> pd.DataFrame:
    """Fetch the dimension rows matching a SMALL key set (a top-k result,
    a tie set) without pulling the whole table to the driver: distributed
    pruned read + broadcast key filter (semi_anti_join's broadcast path).
    The driver receives only the matched rows — bounded by ``len(keys)``
    no matter how large the dimension grows with the corpus."""
    from ..stages.partial_agg import to_pandas_typed

    dim = _read_parquet(path, columns=columns)
    # empty key set (an empty top-k at tiny SF) must still yield a TYPED
    # frame — Ray's to_pandas drops columns on all-empty datasets
    return to_pandas_typed(
        semi_anti_join(dim, keys, on=key_col),
        dict(_side_schema(dim).empty_table().to_pandas().dtypes),
    )


def distinct_set_op(
    a: rd.Dataset, b: rd.Dataset, on: str, anti: bool = False
) -> rd.Dataset:
    """SQL INTERSECT / EXCEPT (DISTINCT set semantics) on one key column:
    the distinct ``on`` values of ``a`` that do (``anti=False``) or do not
    (``anti=True``) occur in ``b``.

    Scale shape: the probe side is first deduped with a hash-bucketed
    grouped count (one row per distinct key rides the membership check,
    never the raw rows), then membership is the adaptive semi/anti join —
    broadcast below the key gate, partitioned cogroup above it. Emits a
    single-column Dataset of the surviving keys."""

    a_distinct = grouped_agg(a.select_columns([on]), [on], count_alias=None)
    return semi_anti_join(a_distinct, b.select_columns([on]), on=on, anti=anti)


def orders_without_lineitems(sf_dir: str) -> pd.DataFrame:
    """Semi/anti-join showcase: per order status, how many orders have at
    least one 1998 shipment (semi) and how many have none (anti).
    Build side = distinct l_orderkey of the filtered lineitems (distributed
    unique -> broadcast; NOT EXISTS / EXISTS in SQL)."""
    li = _read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"), columns=["l_orderkey", "l_shipdate"]
    )
    late = li.map_batches(
        lambda t: t.filter(
            pc.greater_equal(t["l_shipdate"], pa.scalar("1998-01-01").cast(pa.timestamp("us")))
        ).select(["l_orderkey"]),
        batch_format="pyarrow",
    )
    # build side stays a Dataset: semi_anti_join picks broadcast vs
    # cogroup-join by distinct-key volume (was: driver-side unique())
    keys = late.materialize()
    orders = _read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderstatus"],
    )
    from ray.data.aggregate import Count

    semi = (
        semi_anti_join(orders, keys, on="o_orderkey", anti=False)
        .groupby("o_orderstatus").aggregate(Count(alias_name="n_with"))
        .to_pandas()
    )
    anti = (
        semi_anti_join(orders, keys, on="o_orderkey", anti=True)
        .groupby("o_orderstatus").aggregate(Count(alias_name="n_without"))
        .to_pandas()
    )
    out = semi.merge(anti, on="o_orderstatus", how="outer").fillna(0)
    out["n_with"] = out["n_with"].astype(np.int64)
    out["n_without"] = out["n_without"].astype(np.int64)
    return out.sort_values("o_orderstatus").reset_index(drop=True)


def nation_revenue(sf_dir: str) -> pd.DataFrame:
    """Multi-join rollup (TPC-H Q5 shape): lineitem ⋈ orders ⋈ customer ⋈
    nation — discounted revenue by customer nation.

    Scale composition: pre-aggregate lineitem per orderkey (hash-bucketed),
    bucket-join to orders (both large), attach customer->nation through
    attach_key_map's adaptive gate (customer scales with the corpus),
    decode the 25-row nation-name map in the final grouped sum."""
    import pyarrow.parquet as pq_

    li = _read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )

    def widen(t: pa.Table) -> pa.Table:
        price_c = _cents(t["l_extendedprice"])
        disc_c = _cents(t["l_discount"])
        rev = pc.multiply(price_c, pc.subtract(pa.scalar(100, pa.int64()), disc_c))
        return pa.Table.from_arrays(
            [t["l_orderkey"].combine_chunks(), rev], names=["l_orderkey", "rev_c4"]
        )

    li_agg = grouped_agg(
        li.map_batches(widen, batch_format="pyarrow"), ["l_orderkey"], ["rev_c4"],
        count_alias=None,
    )

    orders = _read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_orderkey", "o_custkey"]
    )
    # hinted: the left side streams out of the grouped sum, and a schema
    # probe would run its shuffle twice (CALLER NOTE on bucket_hash_join);
    # the right side is hinted too, so the join probes nothing
    joined = bucket_hash_join(
        li_agg, orders, on="l_orderkey", right_on="o_orderkey",
        n_buckets=16,
        left_dtypes={"l_orderkey": np.int64, "rev_c4": np.int64},
        right_dtypes={"o_orderkey": np.int64, "o_custkey": np.int64},
    )

    nation = pq_.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    ).to_pandas()
    nat_names = dict(zip(nation["n_nationkey"], nation["n_name"]))  # 25 rows

    cust_dim = _read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_nationkey"],
    ).map_batches(
        lambda t: t.rename_columns(["o_custkey", "c_nk"]),
        batch_format="pyarrow",
    )
    joined = attach_key_map(
        joined.select_columns(["o_custkey", "rev_c4"]),
        cust_dim, on="o_custkey", value_cols="c_nk",
        facts_dtypes={"o_custkey": np.int64, "rev_c4": np.int64},
    )

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {"n_name": df["c_nk"].map(nat_names), "rev_c4": df["rev_c4"]}
        )
        return out.groupby("n_name", as_index=False).agg(
            rev_c4=("rev_c4", "sum"), n_orders=("rev_c4", "size")
        )

    from ray.data.aggregate import Sum

    out = (
        joined.map_batches(attach, batch_format="pandas")
        .groupby("n_name")
        .aggregate(Sum("rev_c4", alias_name="rev_c4"), Sum("n_orders", alias_name="n_orders"))
        .to_pandas()
    )
    out["revenue"] = out["rev_c4"] / 10000.0
    return out[["n_name", "n_orders", "revenue"]].sort_values("n_name").reset_index(drop=True)


def order_lineitem_revenue(sf_dir: str) -> pd.DataFrame:
    """Large-large join showcase: lineitem ⋈ orders on orderkey, exact
    integer-cents revenue by order status.

    Scale shape: pre-aggregate lineitem per orderkey FIRST (hash-bucketed
    combine — never join raw lineitem rows), then bucket-hash-join against
    orders, then a tiny grouped sum."""

    li = _read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )

    def widen(t: pa.Table) -> pa.Table:
        price_c = _cents(t["l_extendedprice"])
        disc_c = _cents(t["l_discount"])
        rev = pc.multiply(price_c, pc.subtract(pa.scalar(100, pa.int64()), disc_c))
        return pa.Table.from_arrays(
            [t["l_orderkey"].combine_chunks(), rev], names=["l_orderkey", "rev_c4"]
        )

    # materialized: the join's schema probe would re-execute the grouped
    # sum's shuffle (CALLER NOTE on bucket_hash_join)
    li_agg = compact_nonempty(grouped_agg(
        li.map_batches(widen, batch_format="pyarrow"), ["l_orderkey"], ["rev_c4"],
        count_alias=None,
    ))

    orders = _read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_orderkey", "o_orderstatus"]
    ).map_batches(
        lambda t: t.rename_columns(["l_orderkey", "o_orderstatus"]),
        batch_format="pyarrow",
    )

    joined = bucket_hash_join(li_agg, orders, on="l_orderkey")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("o_orderstatus", as_index=False).agg(
            rev_c4=("rev_c4", "sum"), n_orders=("l_orderkey", "size")
        )

    from ray.data.aggregate import Sum

    out = (
        joined.map_batches(partial, batch_format="pandas")
        .groupby("o_orderstatus")
        .aggregate(Sum("rev_c4", alias_name="rev_c4"), Sum("n_orders", alias_name="n_orders"))
        .to_pandas()
    )
    out["revenue"] = out["rev_c4"] / 10000.0
    return out[["o_orderstatus", "n_orders", "revenue"]].sort_values(
        "o_orderstatus"
    ).reset_index(drop=True)

def q5_local_supplier_volume(sf_dir: str, region: str = "ASIA") -> pd.DataFrame:
    """TPC-H Q5 shape: 1996 revenue from lineitems whose supplier and
    ordering customer share a nation in ``region``, grouped by nation —
    a six-table query plan: two broadcast dimension hops (supplier ->
    nation, customer -> nation, nation -> region) feeding ONE large-large
    partitioned hash join (lineitem x orders on orderkey) with the
    nation-equality as a vectorized post-filter.

    Reference shape: multiway dim+fact join plan (SURVEY.md §2.4 J-ops).

    Scale shape: selective filters are pushed BEFORE the join — orders
    keeps only the date window and ships (orderkey, cust_nation) [two
    ints]; lineitem keeps only region suppliers and ships (orderkey,
    supp_nation, rev_c4). Supplier and customer scale with the corpus,
    so both nationkey hops go through ``attach_key_map``'s adaptive gate
    (searchsorted broadcast below _BROADCAST_KEY_LIMIT, partitioned
    bucket join above) — the supplier dim is pre-filtered to the
    region's nations so the inner attach doubles as the region filter.
    Only the constant-size nation table (25 rows) ships as a closure.
    Exact integer-cents revenue."""
    import pyarrow.compute as pc_
    import pyarrow.parquet as pq

    from ..money import cents_np as _cents_np

    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name", "n_regionkey"],
    ).to_pandas()
    region_t = pq.read_table(os.path.join(sf_dir, "region.parquet")).to_pandas()
    rk = set(region_t.loc[region_t["r_name"] == region, "r_regionkey"])
    nat = nation[nation["n_regionkey"].isin(rk)]
    nat_names = dict(zip(nat["n_nationkey"], nat["n_name"]))  # <= 25 rows
    region_nk = pa.array(list(nat_names.keys()), type=pa.int64())

    supp_dim = _read_parquet(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"],
    ).map_batches(
        lambda t: t.filter(
            pc_.is_in(pc_.cast(t["s_nationkey"], pa.int64()), region_nk)
        ).rename_columns(["l_suppkey", "s_nk"]),
        batch_format="pyarrow",
    )
    cust_dim = _read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_nationkey"],
    ).map_batches(
        lambda t: t.rename_columns(["o_custkey", "c_nk"]),
        batch_format="pyarrow",
    )

    orders = _read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )

    def o_side(df: pd.DataFrame) -> pd.DataFrame:
        df = df[(df["o_orderdate"] >= "1996-01-01") & (df["o_orderdate"] < "1997-01-01")]
        return pd.DataFrame(
            {"l_orderkey": df["o_orderkey"].to_numpy(np.int64),
             "o_custkey": df["o_custkey"].to_numpy(np.int64)}
        )

    o_stream = attach_key_map(
        orders.map_batches(o_side, batch_format="pandas"),
        cust_dim, on="o_custkey", value_cols="c_nk",
        facts_dtypes={"l_orderkey": np.int64, "o_custkey": np.int64},
    ).select_columns(["l_orderkey", "c_nk"])

    li = _read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def l_side(df: pd.DataFrame) -> pd.DataFrame:
        price_c = _cents_np(df["l_extendedprice"].to_numpy())
        disc_c = _cents_np(df["l_discount"].to_numpy())
        return pd.DataFrame(
            {"l_orderkey": df["l_orderkey"].to_numpy(np.int64),
             "l_suppkey": df["l_suppkey"].to_numpy(np.int64),
             "rev_c4": price_c * (100 - disc_c)}
        )

    l_stream = attach_key_map(
        li.map_batches(l_side, batch_format="pandas"),
        supp_dim, on="l_suppkey", value_cols="s_nk",
        facts_dtypes={"l_orderkey": np.int64, "l_suppkey": np.int64,
                      "rev_c4": np.int64},
    ).select_columns(["l_orderkey", "s_nk", "rev_c4"])

    joined = bucket_hash_join(l_stream, o_stream, on="l_orderkey")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["s_nk"] == df["c_nk"]]
        out = pd.DataFrame(
            {"n_name": df["s_nk"].map(nat_names), "rev_c4": df["rev_c4"]}
        )
        return out.groupby("n_name", as_index=False).agg(rev_c4=("rev_c4", "sum"))

    from ray.data.aggregate import Sum

    out = (
        joined.map_batches(partial, batch_format="pandas")
        .groupby("n_name")
        .aggregate(Sum("rev_c4", alias_name="rev_c4"))
        .to_pandas()
    )
    out["revenue"] = out["rev_c4"] / 10000.0
    return out[["n_name", "revenue"]].sort_values("n_name").reset_index(drop=True)


def orders_above_cust_avg(sf_dir: str) -> pd.DataFrame:
    """Correlated-subquery pattern: orders whose price strictly exceeds
    the ordering customer's own average order price — the
    ``o_totalprice > avg(o_totalprice) OVER (PARTITION BY o_custkey)``
    shape, decorrelated the distributed way: pre-aggregate per customer,
    join the (tiny-per-key) aggregate back, filter.

    Exactness: the comparison is done in integer cents cross-multiplied
    (price_c * n > sum_c) so no float division enters the predicate —
    the SQL twin states the identical integer inequality.

    Scale shape: per-cust (sum, n) via grouped_agg partials (the
    aggregate side is |customers|, not |orders|); the join back is the
    partitioned bucket_hash_join — customer cardinality scales with the
    corpus, so no broadcast."""

    orders = _read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )

    def widen(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["o_orderkey"].combine_chunks(), t["o_custkey"].combine_chunks(),
             t["o_totalprice"].combine_chunks(), _cents(t["o_totalprice"])],
            names=["o_orderkey", "o_custkey", "o_totalprice", "price_c"],
        )

    wide = orders.map_batches(widen, batch_format="pyarrow")
    per_cust = grouped_agg(
        wide.select_columns(["o_custkey", "price_c"]), ["o_custkey"], ["price_c"]
    ).map_batches(
        lambda t: t.rename_columns(["o_custkey", "sum_c", "n"]),
        batch_format="pyarrow",
    )
    per_cust = compact_nonempty(per_cust)  # + schema-probe materialize

    joined = bucket_hash_join(wide, per_cust, on="o_custkey")

    def flt(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"o_orderkey": "int64", "o_custkey": "int64",
                "o_totalprice": "float64"}
        keep = df[df["price_c"].to_numpy(np.int64) * df["n"].to_numpy(np.int64)
                  > df["sum_c"].to_numpy(np.int64)]
        return keep[list(cols)].astype(cols)

    return (
        joined.map_batches(flt, batch_format="pandas")
        .to_pandas()
        .sort_values("o_orderkey")
        .reset_index(drop=True)
    )


def cust_order_counts(sf_dir: str) -> pd.DataFrame:
    """LEFT OUTER join: every customer with their order count, customers
    without orders kept at 0 (TPC-H leaves ~1/3 of customers orderless).

    Scale shape: orders pre-aggregated to per-customer counts first
    (grouped_agg partials — the join never sees raw order rows), then
    a partitioned bucket_hash_join with how='left'; both sides scale with
    the corpus so neither broadcasts."""

    cust = _read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey"]
    )
    orders = _read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey"]
    ).map_batches(
        lambda t: t.rename_columns(["c_custkey"]), batch_format="pyarrow"
    )
    # materialized: the join's schema probe would re-run the shuffle
    per_cust = compact_nonempty(grouped_agg(orders, ["c_custkey"]))

    joined = bucket_hash_join(cust, per_cust, on="c_custkey", how="left")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"c_custkey": df["c_custkey"].astype(np.int64)})
        out["n_orders"] = df["n"].fillna(0).astype(np.int64)
        return out

    return (
        joined.map_batches(finish, batch_format="pandas")
        .to_pandas()
        .sort_values("c_custkey")
        .reset_index(drop=True)
    )


Q3_CUTOFF = "1996-06-30"


def q3_shipping_priority(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """TPC-H Q3 (shipping priority): the 10 highest-revenue orders from
    BUILDING-segment customers placed before the cutoff with at least one
    lineitem shipped after it.

    Scale plan: lineitem is date-filtered AT the scan and pre-aggregated
    to per-orderkey exact-cents revenue (hash-bucketed partials — the
    join never sees raw lineitem rows); orders is scan-filtered on date,
    semi-joined to the BUILDING customer keys with the ADAPTIVE
    semi_anti_join (broadcast below the key gate, cogroup above — the
    customer side scales with the corpus); the two survivors meet in a
    partitioned bucket_hash_join; the global top-k is a per-block partial
    cut before one tiny driver fold. Ties break (revenue desc, orderdate
    asc, orderkey asc) — exact on integer cents."""
    import pyarrow.dataset as pads

    import ray

    cutoff = pd.Timestamp(Q3_CUTOFF)

    building = _read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey"],
        filter=(pads.field("c_mktsegment") == "BUILDING"),
    )
    orders = _read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
        filter=(pads.field("o_orderdate") < cutoff),
    )
    # materialized because it feeds BOTH the lineitem semi-filter and the
    # final join — and it's the most selective relation in the query
    # (segment cut x date cut), so the join order starts here
    orders_f = (
        # building carries the customer PK (scan-filtered) — already
        # distinct, so the semi join skips its dedup shuffle; the gate
        # count afterwards is free (materialized metadata)
        semi_anti_join(orders, building, on="o_custkey", assume_distinct=True)
        .map_batches(
            lambda t: t.select(
                ["o_orderkey", "o_orderdate", "o_orderpriority"]
            ).rename_columns(["l_orderkey", "o_orderdate", "o_orderpriority"]),
            batch_format="pyarrow",
        )
        .materialize()
    )

    li = _read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=(pads.field("l_shipdate") > cutoff),
    )

    def widen(t: pa.Table) -> pa.Table:
        rev = pc.multiply(
            _cents(t["l_extendedprice"]),
            pc.subtract(pa.scalar(100, pa.int64()), _cents(t["l_discount"])),
        )
        return pa.Table.from_arrays(
            [t["l_orderkey"].combine_chunks(), rev], names=["l_orderkey", "rev_c4"]
        )

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["l_orderkey", "rev_c4", "o_orderdate", "o_orderpriority"]
        if not all(c in df.columns for c in cols):
            # empty sort partition passed through with its input schema;
            # typed empties so a future pandas concat can't demote the
            # int columns to object
            return pd.DataFrame(
                {"l_orderkey": pd.Series([], dtype="int64"),
                 "rev_c4": pd.Series([], dtype="int64"),
                 "o_orderdate": pd.Series([], dtype="datetime64[us]"),
                 "o_orderpriority": pd.Series([], dtype="object")}
            )
        return df.sort_values(
            ["rev_c4", "o_orderdate", "l_orderkey"],
            ascending=[False, True, True], kind="mergesort",
        ).head(k)[cols]

    # adaptive: the qualifying orders are the most selective relation
    # (segment cut x date cut). Below the broadcast gate they ship ONCE
    # and the whole query is one fused chain: scan-filter lineitem ->
    # in-map semi filter + widen -> bucketed revenue combine over ONLY
    # qualifying keys -> in-map dim attach + partial top-k. No join
    # shuffle at all. Above the gate, the partitioned bucket_hash_join
    # path takes over (both sides corpus-scaled).
    if orders_f.count() <= _BROADCAST_KEY_LIMIT:
        odf = orders_f.to_pandas()  # bounded by the gate
        keys_ref = ray.put(np.sort(odf["l_orderkey"].to_numpy(np.int64)))
        dim_ref = ray.put(odf)

        def filt_widen(t: pa.Table) -> pa.Table:
            ks = ray.get(keys_ref)
            col = t.column("l_orderkey").to_numpy(zero_copy_only=False)
            return widen(t.filter(pa.array(np.isin(col, ks))))

        li_agg = grouped_agg(
            li.map_batches(filt_widen, batch_format="pyarrow"),
            ["l_orderkey"], ["rev_c4"], count_alias=None,
        )

        def attach_topk(df: pd.DataFrame) -> pd.DataFrame:
            if "l_orderkey" not in df.columns:
                return topk(df)  # empty passthrough -> typed empty
            return topk(df.merge(ray.get(dim_ref), on="l_orderkey"))

        part = li_agg.map_batches(attach_topk, batch_format="pandas").to_pandas()
    else:
        li_f = semi_anti_join(
            li, orders_f.select_columns(["l_orderkey"]), on="l_orderkey",
            assume_distinct=True,
        )
        li_agg = compact_nonempty(grouped_agg(
            li_f.map_batches(widen, batch_format="pyarrow"),
            ["l_orderkey"], ["rev_c4"], count_alias=None,
        ))  # schema-probe re-execution
        joined = bucket_hash_join(li_agg, orders_f, on="l_orderkey")
        part = joined.map_batches(topk, batch_format="pandas").to_pandas()

    out = topk(part).rename(columns={"l_orderkey": "o_orderkey"})
    out["revenue"] = out["rev_c4"] / 10000.0
    return out[
        ["o_orderkey", "revenue", "o_orderdate", "o_orderpriority"]
    ].reset_index(drop=True)


def q7_nation_flows(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q7 shape generalized: shipping revenue flow between every
    ORDERED pair of distinct nations (supplier nation -> customer nation)
    per ship year — the bilateral-trade matrix.

    Scale shape: identical join plan to Q5 — supplier and customer scale
    with the corpus, so both nationkey hops go through
    ``attach_key_map``'s adaptive gate (broadcast arrays below
    _BROADCAST_KEY_LIMIT, partitioned bucket join above); lineitem ships
    (orderkey, supp_nation, year, rev_c4), orders ships (orderkey,
    cust_nation), ONE partitioned hash join on orderkey, then per-batch
    partial aggregation into the tiny (nation x nation x year) result
    space before the final grouped sum."""
    import pyarrow.compute as pc_
    import pyarrow.parquet as pq

    from ..money import cents_np as _cents_np

    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    ).to_pandas()
    nat_names = dict(zip(nation["n_nationkey"], nation["n_name"]))  # 25 rows

    supp_dim = _read_parquet(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"],
    ).map_batches(
        lambda t: t.rename_columns(["l_suppkey", "s_nk"]),
        batch_format="pyarrow",
    )
    cust_dim = _read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_nationkey"],
    ).map_batches(
        lambda t: t.rename_columns(["o_custkey", "c_nk"]),
        batch_format="pyarrow",
    )

    li = _read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey", "l_shipdate",
                 "l_extendedprice", "l_discount"],
    )

    def l_side(df: pd.DataFrame) -> pd.DataFrame:
        price_c = _cents_np(df["l_extendedprice"].to_numpy())
        disc_c = _cents_np(df["l_discount"].to_numpy())
        return pd.DataFrame(
            {"l_orderkey": df["l_orderkey"].to_numpy(np.int64),
             "l_suppkey": df["l_suppkey"].to_numpy(np.int64),
             "l_year": df["l_shipdate"].dt.year.to_numpy(np.int64),
             "rev_c4": price_c * (100 - disc_c)}
        )

    l_stream = attach_key_map(
        li.map_batches(l_side, batch_format="pandas"),
        supp_dim, on="l_suppkey", value_cols="s_nk",
        facts_dtypes={"l_orderkey": np.int64, "l_suppkey": np.int64,
                      "l_year": np.int64, "rev_c4": np.int64},
    ).select_columns(["l_orderkey", "s_nk", "l_year", "rev_c4"])

    orders = _read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey"],
    ).map_batches(
        lambda t: pa.Table.from_arrays(
            [pc_.cast(t["o_orderkey"], pa.int64()),
             pc_.cast(t["o_custkey"], pa.int64())],
            names=["l_orderkey", "o_custkey"],
        ),
        batch_format="pyarrow",
    )

    o_stream = attach_key_map(
        orders, cust_dim, on="o_custkey", value_cols="c_nk",
        facts_dtypes={"l_orderkey": np.int64, "o_custkey": np.int64},
    ).select_columns(["l_orderkey", "c_nk"])

    joined = bucket_hash_join(l_stream, o_stream, on="l_orderkey")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["s_nk"] != df["c_nk"]]
        return df.groupby(["s_nk", "c_nk", "l_year"], as_index=False).agg(
            rev_c4=("rev_c4", "sum")
        )

    from ray.data.aggregate import Sum

    out = (
        joined.map_batches(partial, batch_format="pandas")
        .groupby(["s_nk", "c_nk", "l_year"])
        .aggregate(Sum("rev_c4", alias_name="rev_c4"))
        .to_pandas()
    )
    out["supp_nation"] = out["s_nk"].map(nat_names)
    out["cust_nation"] = out["c_nk"].map(nat_names)
    # empty shuffle partitions promote int keys to float through the
    # aggregate — pin the year back to int64
    out["l_year"] = out["l_year"].astype(np.int64)
    out["revenue"] = out["rev_c4"].astype(np.int64) / 10000.0
    return (
        out[["supp_nation", "cust_nation", "l_year", "revenue"]]
        .sort_values(["supp_nation", "cust_nation", "l_year"])
        .reset_index(drop=True)
    )


Q14_FROM, Q14_TO = "1996-09-01", "1996-10-01"


def q14_promo_effect(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q14 (promotion effect): percent of one month's revenue from
    parts of PROMO type.

    Scale shape: part scales with the corpus, so its type column never
    ships whole (the pre-round-4 plan broadcast a full partkey->bool
    dict); the PROMO partkeys reduce in the SCAN task to a key Dataset
    and the month's lines take the adaptive semi join (broadcast set
    below the key gate, partitioned cogroup above). The month window is
    pushed into both lineitem scans; each block emits ONE partial
    (sum, count) row. Exact integer-cents sums; the percent is one
    double division."""
    import pyarrow.compute as pc_
    import pyarrow.dataset as pads

    from ..money import cents_np as _cents_np

    pkeys = _read_parquet(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_type"]
    ).map_batches(
        lambda t: t.filter(pc_.equal(t["p_type"], "PROMO"))
        .select(["p_partkey"]).rename_columns(["l_partkey"]),
        batch_format="pyarrow",
    )

    def window_scan():
        return _read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_partkey", "l_extendedprice", "l_discount"],
            filter=(
                (pads.field("l_shipdate") >= pd.Timestamp(Q14_FROM))
                & (pads.field("l_shipdate") < pd.Timestamp(Q14_TO))
            ),
        )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rev = _cents_np(df["l_extendedprice"].to_numpy()) * (
            100 - _cents_np(df["l_discount"].to_numpy())
        )
        return pd.DataFrame({"rev_c4": [int(rev.sum())], "n_items": [len(df)]})

    def fold(ds_) -> tuple[int, int]:
        p = ds_.map_batches(partial, batch_format="pandas").to_pandas()
        return int(p["rev_c4"].sum()), int(p["n_items"].sum())

    total_c4, n_items = fold(window_scan())
    promo_c4, _ = fold(
        semi_anti_join(window_scan(), pkeys, on="l_partkey",
                       assume_distinct=True)
    )
    return pd.DataFrame(
        {"promo_pct": [100.0 * promo_c4 / total_c4],
         "promo_revenue": [promo_c4 / 10000.0],
         "total_revenue": [total_c4 / 10000.0],
         "n_items": [np.int64(n_items)]}
    )


Q18_MIN_QTY = 300


def q18_big_orders(sf_dir: str, k: int = 100) -> pd.DataFrame:
    """TPC-H Q18 (large-volume customer): the top-k biggest orders (by
    total price) whose line quantities sum above ``Q18_MIN_QTY``, with
    the ordering customer's name.

    Scale shape: lineitem reduces to (orderkey, qty) per-block partials +
    one grouped sum; the HAVING filter cuts to the few qualifying keys,
    which semi-join-filter the orders scan through the adaptive
    broadcast/cogroup gate (semi_anti_join). Only the top-k report rows
    ever reach the driver; the customer name attaches to those k rows."""
    import pyarrow.parquet as pq

    li = _read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_quantity"],
    )

    def widen(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["l_orderkey"].combine_chunks(),
             pc.cast(t["l_quantity"], pa.int64())],
            names=["l_orderkey", "qty"],
        )

    qty = grouped_agg(
        li.map_batches(widen, batch_format="pyarrow"), ["l_orderkey"], ["qty"]
    ).filter(expr=f"qty > {Q18_MIN_QTY}").materialize()
    # materialized once: both the semi-join build side and the report
    # merge read it, and without this the full lineitem scan + grouped
    # sum would execute twice

    orders = _read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    )
    big = semi_anti_join(
        orders, qty.select_columns(["l_orderkey"]), on="o_orderkey",
        assume_distinct=True,
    )

    def to_report(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["o_orderkey"].combine_chunks(), t["o_custkey"].combine_chunks(),
             t["o_orderdate"].combine_chunks(), _cents(t["o_totalprice"])],
            names=["o_orderkey", "o_custkey", "o_orderdate", "price_c"],
        )

    rep = (
        big.map_batches(to_report, batch_format="pyarrow")
        .sort(["price_c", "o_orderkey"], descending=[True, False])
        .limit(k)
        .to_pandas()
    )
    qdf = qty.to_pandas()  # bounded: orders above the HAVING threshold
    rep = rep.merge(
        qdf.rename(columns={"l_orderkey": "o_orderkey"})[["o_orderkey", "qty"]],
        on="o_orderkey", how="left",
    )
    cust = lookup_dim_rows(
        os.path.join(sf_dir, "customer.parquet"), "c_custkey",
        rep["o_custkey"].to_numpy(np.int64), ["c_custkey", "c_name"],
    )  # bounded by k — never the full customer table at the driver
    rep["c_name"] = rep["o_custkey"].map(
        dict(zip(cust["c_custkey"], cust["c_name"]))
    )
    out = pd.DataFrame(
        {"c_name": rep["c_name"], "o_custkey": rep["o_custkey"].astype(np.int64),
         "o_orderkey": rep["o_orderkey"].astype(np.int64),
         "o_orderdate": pd.to_datetime(rep["o_orderdate"]).dt.strftime("%Y-%m-%d"),
         "total_price": rep["price_c"] / 100.0,
         "sum_qty": rep["qty"].astype(np.int64)}
    )
    return (
        out.sort_values(["total_price", "o_orderkey"],
                        ascending=[False, True])
        .reset_index(drop=True)
    )


Q10_FROM, Q10_TO = "1996-10-01", "1997-01-01"


def q10_returned_items(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """TPC-H Q10 (returned-item reporting): the top-k customers by revenue
    lost to returned lineitems ('R' flag) on one quarter's orders.

    Scale shape: the return-flag cut runs at the lineitem scan and the
    date window at the orders scan BEFORE the partitioned hash join on
    orderkey; join output pre-aggregates per custkey inside each batch, so
    the final grouped sum moves one row per (block, customer). Names
    attach to the k report rows only."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from ..money import cents_np as _cents_np

    li = _read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=(pads.field("l_returnflag") == "R"),
    )

    def l_side(df: pd.DataFrame) -> pd.DataFrame:
        rev = _cents_np(df["l_extendedprice"].to_numpy()) * (
            100 - _cents_np(df["l_discount"].to_numpy())
        )
        return pd.DataFrame(
            {"l_orderkey": df["l_orderkey"].to_numpy(np.int64), "rev_c4": rev}
        )

    orders = _read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey"],
        filter=(
            (pads.field("o_orderdate") >= pd.Timestamp(Q10_FROM))
            & (pads.field("o_orderdate") < pd.Timestamp(Q10_TO))
        ),
    )

    def o_side(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"l_orderkey": df["o_orderkey"].to_numpy(np.int64),
             "c_custkey": df["o_custkey"].to_numpy(np.int64)}
        )

    joined = bucket_hash_join(
        li.map_batches(l_side, batch_format="pandas"),
        orders.map_batches(o_side, batch_format="pandas"),
        on="l_orderkey",
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("c_custkey", as_index=False).agg(
            rev_c4=("rev_c4", "sum")
        )

    from ray.data.aggregate import Sum

    top = (
        joined.map_batches(partial, batch_format="pandas")
        .groupby("c_custkey")
        .aggregate(Sum("rev_c4", alias_name="rev_c4"))
        .sort(["rev_c4", "c_custkey"], descending=[True, False])
        .limit(k)
        .to_pandas()
    )
    cust = lookup_dim_rows(
        os.path.join(sf_dir, "customer.parquet"), "c_custkey",
        top["c_custkey"].to_numpy(np.int64),
        ["c_custkey", "c_name", "c_nationkey"],
    )  # bounded by k — never the full customer table at the driver
    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name"],
    ).to_pandas()
    cd = cust.set_index("c_custkey")
    top["c_name"] = top["c_custkey"].map(cd["c_name"])
    top["n_name"] = top["c_custkey"].map(cd["c_nationkey"]).map(
        nation.set_index("n_nationkey")["n_name"]
    )
    out = pd.DataFrame(
        {"c_custkey": top["c_custkey"].astype(np.int64), "c_name": top["c_name"],
         "n_name": top["n_name"], "revenue": top["rev_c4"] / 10000.0}
    )
    return (
        out.sort_values(["revenue", "c_custkey"], ascending=[False, True])
        .reset_index(drop=True)
    )


Q22_CUTOFF = "2000-01-01"


def q22_dormant_customers(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q22 shape (global sales opportunity): per market segment,
    the count and total balance of customers whose account balance beats
    the average POSITIVE balance but who placed no order on or after
    ``Q22_CUTOFF`` — a decorrelated scalar subquery plus an anti-join.

    Scale shape: the global average is two integers from one partial
    reduction, and the above-average cut is the cross-multiplied integer
    predicate bal_c * n_pos > sum_c (no float avg, exact everywhere);
    recently-active custkeys flow date-pruned from the orders scan into
    the adaptive anti-join (broadcast set below the key gate, marker
    cogroup join above); the segment rollup ships one partial row per
    (block, segment)."""
    from ray.data.aggregate import Sum

    from ..money import cents_np as _cents_np

    cust = _read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment", "c_acctbal"],
    )

    def pos_partial(df: pd.DataFrame) -> pd.DataFrame:
        pos = df[df["c_acctbal"] > 0.0]
        return pd.DataFrame(
            {"s": [int(_cents_np(pos["c_acctbal"].to_numpy()).sum())],
             "n": [len(pos)]}
        )

    tot = cust.map_batches(pos_partial, batch_format="pandas").to_pandas()
    s_pos, n_pos = int(tot["s"].sum()), int(tot["n"].sum())

    def above_avg(df: pd.DataFrame) -> pd.DataFrame:
        bal_c = _cents_np(df["c_acctbal"].to_numpy())
        keep = bal_c * n_pos > s_pos
        return pd.DataFrame(
            {"c_custkey": df["c_custkey"].to_numpy(np.int64)[keep],
             "c_mktsegment": df["c_mktsegment"].to_numpy()[keep],
             "bal_c": bal_c[keep]}
        )

    import pyarrow.dataset as pads

    active = _read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey"],
        filter=(pads.field("o_orderdate") >= pd.Timestamp(Q22_CUTOFF)),
    ).map_batches(
        lambda t: t.rename_columns(["c_custkey"]), batch_format="pyarrow"
    )

    dormant = semi_anti_join(
        cust.map_batches(above_avg, batch_format="pandas"),
        active, on="c_custkey", anti=True,
    )

    def seg_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("c_mktsegment", as_index=False).agg(
            n_cust=("bal_c", "size"), bal_c=("bal_c", "sum")
        )
        return g

    out = (
        dormant.map_batches(seg_partial, batch_format="pandas")
        .groupby("c_mktsegment")
        .aggregate(Sum("n_cust", alias_name="n_cust"),
                   Sum("bal_c", alias_name="bal_c"))
        .to_pandas()
    )
    out["n_cust"] = out["n_cust"].astype(np.int64)
    out["total_acctbal"] = out["bal_c"].astype(np.int64) / 100.0
    return (
        out[["c_mktsegment", "n_cust", "total_acctbal"]]
        .sort_values("c_mktsegment")
        .reset_index(drop=True)
    )


def detect_hot_keys(ds: rd.Dataset, on: str, threshold: int) -> list:
    """Keys whose row count exceeds ``threshold`` — per-block count
    partials then one grouped sum, so the shuffle moves one row per
    (block, key); the returned list is bounded by data_size/threshold."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        g = (
            t.select([on]).to_pandas().groupby(on, as_index=False).size()
            .rename(columns={"size": "cnt"})
        )
        return _from_pandas(g)

    counts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(on)
        .aggregate(Sum("cnt", alias_name="cnt"))
        .filter(expr=f"cnt > {threshold}")
        .to_pandas()
    )
    return counts[on].tolist()


def salted_bucket_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: str,
    hot_keys,
    n_buckets: int = 64,
    salt: int = 8,
) -> rd.Dataset:
    """Inner bucket join that survives hot keys: rows of ``left`` whose
    key is in ``hot_keys`` are spread across ``salt`` sub-partitions
    (deterministic per-block round-robin), and the matching ``right``
    rows are REPLICATED to every sub-partition; cold keys pay nothing.
    Per-task memory for a hot key drops from count(key) to
    count(key)/salt at the cost of salt x replication of the hot build
    rows — the standard skew-salting trade, applied only where needed.

    ``hot_keys`` comes from :func:`detect_hot_keys` or the caller's own
    knowledge. Column sets must be disjoint apart from ``on``."""
    import ray

    hot_ref = ray.put(np.asarray(list(hot_keys)))

    def is_hot(t: pa.Table) -> np.ndarray:
        return np.isin(t.column(on).to_numpy(zero_copy_only=False),
                       ray.get(hot_ref))

    def salt_left(t: pa.Table) -> pa.Table:
        s = np.where(is_hot(t), np.arange(t.num_rows, dtype=np.int64) % salt, 0)
        return t.append_column("__salt", pa.array(s))

    def salt_right(t: pa.Table) -> pa.Table:
        hot = is_hot(t)
        cold_idx, hot_idx = np.flatnonzero(~hot), np.flatnonzero(hot)
        t = t.take(pa.array(np.concatenate([cold_idx] + [hot_idx] * salt)))
        s = np.repeat(np.arange(salt, dtype=np.int64), len(hot_idx))
        return t.append_column(
            "__salt", pa.array(np.concatenate([np.zeros(len(cold_idx), np.int64), s]))
        )

    def hints(ds: rd.Dataset) -> dict:
        # from the unsalted side: probing the salted map would run it
        return {**{f.name: f.type for f in _side_schema(ds)},
                "__salt": pa.int64()}

    return bucket_hash_join(
        left.map_batches(salt_left, batch_format="pyarrow"),
        right.map_batches(salt_right, batch_format="pyarrow"),
        on=[on, "__salt"], n_buckets=n_buckets,
        left_dtypes=hints(left), right_dtypes=hints(right),
    ).drop_columns(["__salt"])


Q15_FROM, Q15_TO = "1996-10-01", "1997-01-01"


def q15_top_supplier(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q15 (top supplier): supplier(s) achieving the maximum
    revenue over one quarter's shipments — a max-of-aggregate with
    tie-keeping semantics.

    Scale shape: the quarter window is pushed into the lineitem scan;
    per-supplier revenue reduces via per-block partials + one grouped
    sum into a DIMENSION-sized table (one row per supplier), whose max
    + equality filter run driver-side on that small result. Exact
    integer-cents revenue, so ties are exact too."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from ..money import cents_np as _cents_np

    li = _read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_suppkey", "l_extendedprice", "l_discount"],
        filter=(
            (pads.field("l_shipdate") >= pd.Timestamp(Q15_FROM))
            & (pads.field("l_shipdate") < pd.Timestamp(Q15_TO))
        ),
    )

    def widen(df: pd.DataFrame) -> pd.DataFrame:
        rev = _cents_np(df["l_extendedprice"].to_numpy()) * (
            100 - _cents_np(df["l_discount"].to_numpy())
        )
        return pd.DataFrame(
            {"l_suppkey": df["l_suppkey"].to_numpy(np.int64), "rev_c4": rev}
        )

    # per-supplier revenue STAYS a distributed Dataset (supplier scales
    # with the corpus); materialize once so max + tie filter reuse blocks
    rev_ds = grouped_agg(
        li.map_batches(widen, batch_format="pandas"), ["l_suppkey"], ["rev_c4"]
    ).materialize()
    from ray.data.aggregate import Max

    top_c4 = int(rev_ds.aggregate(Max("rev_c4"))["max(rev_c4)"])
    top = rev_ds.map_batches(
        lambda t: t.filter(pc.equal(t["rev_c4"], pa.scalar(top_c4, pa.int64()))),
        batch_format="pyarrow",
    ).to_pandas()  # bounded by the tie set
    supp = lookup_dim_rows(
        os.path.join(sf_dir, "supplier.parquet"), "s_suppkey",
        top["l_suppkey"].to_numpy(np.int64), ["s_suppkey", "s_name"],
    )  # bounded by the tie set — never the full supplier table
    out = pd.DataFrame(
        {"s_suppkey": top["l_suppkey"].astype(np.int64),
         "s_name": top["l_suppkey"].map(
             dict(zip(supp["s_suppkey"], supp["s_name"]))),
         "total_revenue": top["rev_c4"].astype(np.int64) / 10000.0}
    )
    return out.sort_values("s_suppkey").reset_index(drop=True)


Q4_FROM, Q4_TO = "1996-07-01", "1996-10-01"
Q4_LATE_DAYS = 30


def q4_late_shipments(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q4 shape (order priority checking): per priority, the count
    of one quarter's orders having at least one lineitem shipped more
    than 30 days after the order date — a correlated EXISTS turned into
    an aggregate-then-join.

    Scale shape: the EXISTS collapses to ONE grouped max (latest
    shipdate per order, partial-combined); the quarter window is pushed
    into the orders scan; the date predicate evaluates vectorized after
    a partitioned join on orderkey; the priority rollup ships one row
    per (block, priority)."""
    import pyarrow.dataset as pads

    from ray.data.aggregate import Max, Sum

    li = _read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_shipdate"],
    )
    # materialized: the join's schema probe would re-run the grouped max
    ship = li.groupby("l_orderkey").aggregate(
        Max("l_shipdate", alias_name="ship_end")
    ).materialize()

    orders = _read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
        filter=(
            (pads.field("o_orderdate") >= pd.Timestamp(Q4_FROM))
            & (pads.field("o_orderdate") < pd.Timestamp(Q4_TO))
        ),
    ).map_batches(
        lambda t: t.rename_columns(
            ["l_orderkey", "o_orderdate", "o_orderpriority"]
        ),
        batch_format="pyarrow",
    )

    joined = bucket_hash_join(orders, ship, on="l_orderkey")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        late = (
            pd.to_datetime(df["ship_end"])
            > pd.to_datetime(df["o_orderdate"])
            + pd.Timedelta(days=Q4_LATE_DAYS)
        )
        g = df[late].groupby("o_orderpriority", as_index=False).size()
        return g.rename(columns={"size": "n_late"})

    out = (
        joined.map_batches(partial, batch_format="pandas")
        .groupby("o_orderpriority")
        .aggregate(Sum("n_late", alias_name="n_late"))
        .to_pandas()
    )
    out["n_late"] = out["n_late"].astype(np.int64)
    return out.sort_values("o_orderpriority").reset_index(drop=True)


Q8_NATION = "NATION_3"
Q8_REGION = "ASIA"
Q8_TYPE = "PROMO"


def q8_market_share(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q8 shape (national market share): per order year, the share
    of PROMO-part revenue delivered into one region's customers that was
    supplied by one nation — a ratio of two exact-cents aggregates over
    the same joined stream.

    Scale shape: Q5/Q7's plan with every corpus-scaled dimension kept
    distributed — the PROMO part keys reduce in the scan task and gate
    lineitem through the adaptive semi join; supplier-nation and
    customer-region hops go through ``attach_key_map`` (the customer dim
    is pre-filtered to the region's nations so the inner attach doubles
    as the region filter); lineitem ships PROMO rows (orderkey,
    supp_nation, rev_c4), orders ships region rows (orderkey, year); one
    partitioned join; per-batch partials into the tiny year space
    carrying (target_c4, total_c4). Only the 25-row nation table is a
    driver-side constant."""
    import pyarrow.compute as pc_
    import pyarrow.parquet as pq

    from ..money import cents_np as _cents_np
    from ray.data.aggregate import Sum

    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet")
    ).to_pandas()
    region = pq.read_table(
        os.path.join(sf_dir, "region.parquet")
    ).to_pandas()
    rk = set(region.loc[region["r_name"] == Q8_REGION, "r_regionkey"])
    region_nk = pa.array(
        nation.loc[nation["n_regionkey"].isin(rk), "n_nationkey"]
        .astype(np.int64).tolist(), type=pa.int64(),
    )
    target_nk = set(
        nation.loc[nation["n_name"] == Q8_NATION, "n_nationkey"]
    )

    promo_keys = _read_parquet(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_type"]
    ).map_batches(
        lambda t: t.filter(pc_.equal(t["p_type"], Q8_TYPE))
        .select(["p_partkey"]).rename_columns(["l_partkey"]),
        batch_format="pyarrow",
    )
    supp_dim = _read_parquet(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"],
    ).map_batches(
        lambda t: t.rename_columns(["l_suppkey", "s_nk"]),
        batch_format="pyarrow",
    )
    cust_dim = _read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_nationkey"],
    ).map_batches(
        lambda t: t.filter(
            pc_.is_in(pc_.cast(t["c_nationkey"], pa.int64()), region_nk)
        ).rename_columns(["o_custkey", "c_nk"]),
        batch_format="pyarrow",
    )

    li = semi_anti_join(
        _read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_orderkey", "l_partkey", "l_suppkey",
                     "l_extendedprice", "l_discount"],
        ),
        promo_keys, on="l_partkey", assume_distinct=True,
    )

    def l_side(df: pd.DataFrame) -> pd.DataFrame:
        rev = _cents_np(df["l_extendedprice"].to_numpy()) * (
            100 - _cents_np(df["l_discount"].to_numpy())
        )
        return pd.DataFrame(
            {"l_orderkey": df["l_orderkey"].to_numpy(np.int64),
             "l_suppkey": df["l_suppkey"].to_numpy(np.int64),
             "rev_c4": rev}
        )

    l_stream = attach_key_map(
        li.map_batches(l_side, batch_format="pandas"),
        supp_dim, on="l_suppkey", value_cols="s_nk",
        facts_dtypes={"l_orderkey": np.int64, "l_suppkey": np.int64,
                      "rev_c4": np.int64},
    ).select_columns(["l_orderkey", "s_nk", "rev_c4"])

    orders = _read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )

    def o_side(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"l_orderkey": df["o_orderkey"].to_numpy(np.int64),
             "o_custkey": df["o_custkey"].to_numpy(np.int64),
             "o_year": pd.to_datetime(df["o_orderdate"]).dt.year.to_numpy(
                 np.int64)}
        )

    o_stream = attach_key_map(
        orders.map_batches(o_side, batch_format="pandas"),
        cust_dim, on="o_custkey", value_cols="c_nk",
        facts_dtypes={"l_orderkey": np.int64, "o_custkey": np.int64,
                      "o_year": np.int64},
    ).select_columns(["l_orderkey", "o_year"])

    joined = bucket_hash_join(l_stream, o_stream, on="l_orderkey")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(
            target_c4=np.where(df["s_nk"].isin(target_nk).to_numpy(bool),
                               df["rev_c4"], 0)
        )
        return df.groupby("o_year", as_index=False).agg(
            target_c4=("target_c4", "sum"), total_c4=("rev_c4", "sum")
        )

    out = (
        joined.map_batches(partial, batch_format="pandas")
        .groupby("o_year")
        .aggregate(Sum("target_c4", alias_name="target_c4"),
                   Sum("total_c4", alias_name="total_c4"))
        .to_pandas()
    )
    out["o_year"] = out["o_year"].astype(np.int64)
    out["mkt_share"] = (
        out["target_c4"].astype(np.float64)
        / out["total_c4"].astype(np.float64)
    )
    return (
        out[["o_year", "mkt_share"]].sort_values("o_year")
        .reset_index(drop=True)
    )


def q13_order_count_distribution(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q13 (customer distribution): the histogram of customers by
    how many orders they placed, INCLUDING zero-order customers — a
    LEFT-join grouped count of a grouped count.

    Scale shape: orders reduce to per-customer counts; zero-order
    customers come from one total-customer count minus the counted set
    (no LEFT join shuffle needed: |customers with >=1 order| is already
    the grouped table's row count); the final histogram is bounded by
    max orders per customer."""
    from ray.data.aggregate import Sum

    orders = _read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey"]
    )
    per_cust = grouped_agg(orders, ["o_custkey"])

    def hist_partial(t: pa.Table) -> pa.Table:
        g = (
            t.select(["n"]).to_pandas().groupby("n", as_index=False).size()
            .rename(columns={"n": "c_count", "size": "n_cust"})
        )
        return _from_pandas(g)

    hist = (
        per_cust.map_batches(hist_partial, batch_format="pyarrow")
        .groupby("c_count")
        .aggregate(Sum("n_cust", alias_name="n_cust"))
        .to_pandas()
    )
    import pyarrow.parquet as pq

    n_total = pq.ParquetFile(
        os.path.join(sf_dir, "customer.parquet")
    ).metadata.num_rows
    n_with = int(hist["n_cust"].sum())
    if n_total - n_with > 0:
        hist = pd.concat(
            [hist,
             pd.DataFrame({"c_count": [0], "n_cust": [n_total - n_with]})]
        )
    hist["c_count"] = hist["c_count"].astype(np.int64)
    hist["n_cust"] = hist["n_cust"].astype(np.int64)
    return (
        hist.sort_values(["n_cust", "c_count"], ascending=[False, False])
        .reset_index(drop=True)
    )


Q17_QTY_FRACTION_NUM, Q17_QTY_FRACTION_DEN = 1, 5  # 0.2 exactly


def q17_small_quantity_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q17 shape (small-quantity-order revenue): average yearly
    revenue lost if orders below 20% of a part's average quantity were
    not taken — a per-group scalar threshold applied back to the fact
    table.

    Scale shape: per-part (sum_qty, n) reduces via partials into a
    part-dimension-sized DATASET — part scales with the corpus, so it
    goes back onto the fact stream through ``attach_key_map``'s adaptive
    gate (two broadcast int arrays below _BROADCAST_KEY_LIMIT keys, a
    partitioned bucket join above) rather than a driver-side dict; the
    threshold predicate is the cross-multiplied integer comparison
    qty * 5 * n_part < sum_qty (no float average anywhere); the second
    lineitem scan emits per-block revenue partials."""

    def li_scan():
        return _read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_partkey", "l_quantity", "l_extendedprice"],
        )

    def widen(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["l_partkey"].combine_chunks(),
             pc.cast(t["l_quantity"], pa.int64())],
            names=["l_partkey", "sum_qty"],
        )

    per_part = grouped_agg(  # part-dimension-sized; stays a Dataset
        li_scan().map_batches(widen, batch_format="pyarrow"),
        ["l_partkey"], ["sum_qty"], count_alias="n_part",
    )

    def fact_prep(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pc.cast(t["l_partkey"], pa.int64()),
             pc.cast(t["l_quantity"], pa.int64()),
             _cents(t["l_extendedprice"])],
            names=["l_partkey", "qty", "price_c"],
        )

    attached = attach_key_map(
        li_scan().map_batches(fact_prep, batch_format="pyarrow"),
        per_part, on="l_partkey", value_cols=["sum_qty", "n_part"],
        facts_dtypes={"l_partkey": np.int64, "qty": np.int64,
                      "price_c": np.int64},
    )

    def rev_partial(df: pd.DataFrame) -> pd.DataFrame:
        qty = df["qty"].to_numpy(np.int64)
        s = df["sum_qty"].to_numpy(np.int64)
        n = df["n_part"].to_numpy(np.int64)
        keep = (qty * Q17_QTY_FRACTION_DEN * n
                * Q17_QTY_FRACTION_NUM) < s  # qty*5 < avg*5 = s/n -> qty*5*n < s
        price_c = df["price_c"].to_numpy(np.int64)
        return pd.DataFrame(
            {"rev_c": [int(price_c[keep].sum())],
             "n_items": [int(keep.sum())]}
        )

    p = attached.map_batches(rev_partial, batch_format="pandas").to_pandas()
    rev_c = int(p["rev_c"].sum())
    return pd.DataFrame(
        {"avg_yearly": [rev_c / 7.0 / 100.0],
         "n_items": [np.int64(p["n_items"].sum())]}
    )

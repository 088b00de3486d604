"""BPE merge-learning parity tests (functions/bpe.py) — single-process
replay of the exact operator semantics (weighted pair counts, string
tie-break, exclusion of prior winners, single replace-pass application)
plus targeted edge cases."""

import collections

import pyarrow as pa

from ocr_ray.functions.bpe import bpe_merges
from ocr_ray.stages.partial_agg import LOCAL_ROW_LIMITS


def _replay(texts, k):
    """Reference single-process implementation of the SAME semantics."""
    wc = collections.Counter()
    for t in texts:
        wc.update(t.lower().split())
    words = {" ".join(w): f for w, f in wc.items()}
    chosen = []
    for _ in range(k):
        pc_ = collections.Counter()
        for syms, f in words.items():
            parts = syms.split(" ")
            for a, b in zip(parts, parts[1:]):
                p = a + " " + b
                if p not in {c[0] for c in chosen}:
                    pc_[p] += f
        if not pc_:
            break
        pair = min(pc_, key=lambda p: (-pc_[p], p))
        chosen.append((pair, pc_[pair]))
        l, r = pair.split(" ")
        words = {
            (" " + s + " ").replace(f" {l} {r} ", f" {l}{r} ").strip(): f
            for s, f in words.items()
        }
    return chosen


def _run(ray_session, texts, k):
    import ray.data as rd

    docs = rd.from_arrow(
        pa.Table.from_pydict(
            {"doc_id": list(range(len(texts))), "text": texts}
        )
    ).repartition(3)
    got = bpe_merges(docs, k=k)
    return [
        (f"{l} {r}", n)
        for l, r, n in zip(got["left"], got["right"], got["n"])
    ], got


def test_bpe_matches_replay(ray_session):
    texts = [
        "low lower lowest low low",
        "new newer newest new",
        "wider wide widest",
        "low low lower",
        "",
    ]
    chosen, got = _run(ray_session, texts, 6)
    want = _replay(texts, 6)
    assert chosen == want
    assert got["rank"].tolist() == list(range(1, len(want) + 1))


def test_bpe_replace_pass_and_exclusion(ray_session):
    """'a b a b' merges only the first occurrence per pass (shared
    delimiter), so (a, b) survives — the argmax must EXCLUDE it rather
    than pick it twice."""
    texts = ["abab abab abab"] * 3  # word 'abab' x9
    chosen, _ = _run(ray_session, texts, 3)
    want = _replay(texts, 3)
    assert chosen == want
    pairs = [p for p, _ in chosen]
    assert len(pairs) == len(set(pairs))  # no duplicate merges
    # round 1 picks ('a','b') at weight 2 pairs/word * 9 words = 18
    assert chosen[0] == ("a b", 18)


def test_bpe_exhaustion_and_ties(ray_session):
    # 'xy' x3: one pair total; k=4 must stop after it's chosen (the
    # second-round counter only sees the excluded pair)
    chosen, got = _run(ray_session, ["xy xy xy"], 4)
    assert chosen == _replay(["xy xy xy"], 4)
    assert chosen[0] == ("x y", 3)
    assert len(chosen) <= 2  # 'x y' then nothing new appears
    # ties broken by the concatenated pair string ascending
    chosen2, _ = _run(ray_session, ["ab cd ab cd"], 1)
    assert chosen2 == [("a b", 2)]


def test_bpe_encode_stats_matches_replay(ray_session):
    """Per-doc subword accounting == replaying the final segmentation
    table single-process, including repeated words and untouched docs."""
    import pyarrow as pa

    import ray.data as rd

    from ocr_ray.functions.bpe import bpe_encode_stats

    texts = [
        "low lower lowest low low",
        "new newer newest new",
        "wider wide widest",
        "low low lower",
        "",
    ]
    docs = rd.from_arrow(
        pa.Table.from_pydict(
            {"doc_id": list(range(len(texts))), "text": texts}
        )
    ).repartition(3)
    got = (
        bpe_encode_stats(docs, k=6)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    # replay: learn merges (shared replay helper semantics), then apply
    # the final segmentation to every doc
    chosen = _replay(texts, 6)
    wc = collections.Counter()
    for t in texts:
        wc.update(t.lower().split())
    seg = {w: " ".join(w) for w in wc}
    for pair, _ in chosen:
        l, r = pair.split(" ")
        seg = {
            w: (" " + s + " ").replace(f" {l} {r} ", f" {l}{r} ").strip()
            for w, s in seg.items()
        }
    want = []
    for i, t in enumerate(texts):
        toks = t.lower().split()
        if not toks:
            continue  # inner-join semantics: no row
        want.append(
            (i, len(toks), sum(len(seg[w].split(" ")) for w in toks))
        )
    assert list(map(tuple, got.to_numpy())) == want
    # merges actually compressed something: subwords < raw chars
    assert (got["n_subwords"] < [len(t.replace(" ", "")) for t, _ in
                                 [(texts[i], None) for i, _, _ in want]]).any()


def test_bpe_distributed_path_matches_local(ray_session, monkeypatch):
    """Forcing the word limit to 0 must give the identical merge list
    via the full distributed rounds (bucketed sums + block top-1)."""
    import ocr_ray.functions.bpe as B

    texts = ["low lower lowest low low", "new newer newest new",
             "wider wide widest", "low low lower"]
    local, _ = _run(ray_session, texts, 5)
    monkeypatch.setitem(LOCAL_ROW_LIMITS, "bpe", 0)
    dist, got = _run(ray_session, texts, 5)
    assert dist == local == _replay(texts, 5)

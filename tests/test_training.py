"""Training-replay surface (ocr_ray.pipelines.training): T1/T3-T8 analogs.

The semantic anchor is the brute-force per-pixel check: the engine's
closed-form per-image loss partials must equal a literal rasterization of
the reference's score/geo/mask maps (DataGen.py:231-292 + DetectLoss.py)
downsampled by LABEL_STRIDE, for every payload kind.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

from ocr_ray import config as C
from ocr_ray.extract import score_units
from ocr_ray.pipelines import training as T
from ocr_ray.segment import segment
from ocr_ray.textnorm import normalize_text

PAYLOADS = [
    "alpha beta gamma delta epsilon zeta\neta theta iota kappa\n\n"
    "second paragraph with plenty of text runs here",
    "<html><body><nav>menu home</nav><p>plain content words in the middle"
    "</p><a href=\"#\">more link</a></body></html>",
    "### ignored run that is long enough to matter\n\nvisible paragraph "
    "with enough characters",
    "tiny",
    "*",
    "%PDF\nL 0 0 0 first record line here\nL 0 1 0 second record text",
    "x" * 500,
    "short\n\nlonger paragraph that clears the minimum text size gate",
]


def brute_partials(doc_id: int, norm: str):
    """Literal rasterization of the reference label maps + loss pieces."""
    units = segment(norm)
    if not units:
        return None
    scores = score_units(units)
    blocks = T._blocks_of(units, scores)
    if all(b.ignore for b in blocks):
        return None
    n = len(norm)
    true = np.zeros(n)
    mask = np.ones(n)
    pred = np.zeros(n)
    lgpix = np.zeros(n)
    reg_sum = 0.0
    n_boxes = 0
    for b in blocks:
        extent = b.ge - b.gs
        d = T.SHRINK_NUM * extent // T.SHRINK_DEN
        ss, se = b.gs + d, b.ge - d
        if se > ss:
            true[ss:se] = 1.0
        if extent < C.MIN_TEXT_SIZE or b.ignore:
            mask[b.gs:b.ge] = 0.0
        for us, ue, s in zip(b.starts, b.ends, b.scores):
            pred[us:ue] = s
        if extent >= C.MIN_TEXT_SIZE and not b.ignore:
            h = T._mix64_int(doc_id * 65536 + b.idx)
            j1, j2, jt = h % 4, (h >> 2) % 4, (h >> 4) % 7
            iou = (extent + 1.0) / (extent + float(j1 + j2) + 1.0)
            lg = -math.log(iou + T.GEO_EPS) + 20.0 * (
                1.0 - math.cos(float(jt) * 0.1 - 0.3)
            )
            if se > ss:
                lgpix[ss:se] = lg
        if not b.ignore and extent <= T.MAX_BOX_WIDTH:
            wsum = sum(ue - us for us, ue in zip(b.starts, b.ends))
            swsum = sum(s * float(ue - us)
                        for us, ue, s in zip(b.starts, b.ends, b.scores))
            s_box = swsum / float(wsum) if wsum else 0.0
            reg_sum += -math.log(max(s_box, T.REG_EPS))
            n_boxes += 1
    idx = np.arange(0, n, T.LABEL_STRIDE)
    inter = float((true * pred * mask)[idx].sum())
    u1 = int((true * mask)[idx].sum())
    u2 = float((pred * mask)[idx].sum())
    lg_sum = float((lgpix * true * mask)[idx].sum())
    return (lg_sum, inter, u1, u2, len(idx), reg_sum, n_boxes)


@pytest.mark.parametrize("i,payload", list(enumerate(PAYLOADS)))
def test_image_partials_match_rasterized_maps(i, payload):
    norm = normalize_text(payload)
    got = T._image_partials(1000 + i, norm)
    want = brute_partials(1000 + i, norm)
    if want is None:
        assert got is None
        return
    assert got is not None
    _, lg, inter, u1, u2, npx, reg, nb = got
    w_lg, w_inter, w_u1, w_u2, w_npx, w_reg, w_nb = want
    assert (u1, npx, nb) == (w_u1, w_npx, w_nb)
    assert lg == pytest.approx(w_lg, rel=1e-12, abs=1e-12)
    assert inter == pytest.approx(w_inter, rel=1e-12, abs=1e-12)
    assert u2 == pytest.approx(w_u2, rel=1e-12, abs=1e-12)
    assert reg == pytest.approx(w_reg, rel=1e-12, abs=1e-12)


def test_gt_labels_hand_example():
    # one plain paragraph of 20 chars at offset 0: shrink d = 6
    norm = "aaaa bbbb cccc dddd!"
    rows = T._gt_rows_for(7, norm)
    assert len(rows) == 1
    (doc, idx, gs, ge, ss, se, area, trainable, left, right) = rows[0]
    assert (doc, idx, gs, ge) == (7, 0, 0, 20)
    assert (ss, se, area) == (6, 14, 8)
    assert trainable == 1
    # sum of p-gs for p in [6,14) = 6+..+13 = 76; right = 20*8 - 76
    assert (left, right) == (76, 20 * 8 - 76)


def test_gt_labels_mask_rules():
    rows = T._gt_rows_for(1, "tiny")  # extent 4 < MIN_TEXT_SIZE
    assert rows[0][7] == 0
    rows = T._gt_rows_for(1, "### ignored but long enough run")
    assert rows[0][7] == 0  # ignore tag masks regardless of size


def test_lr_schedule_values(ray_session):
    df = T.lr_schedule(30).to_pandas().sort_values("step").reset_index(drop=True)
    assert len(df) == 30
    assert df["lr"].iloc[0] == 0.0  # rsqrt(0)=inf -> min(inf, 0)
    for s in (1, 2):
        want = T.LR_RSQRT_D * min(1.0 / math.sqrt(s), s * T.LR_WARM_FACTOR)
        assert df["lr"].iloc[s] == want
    # past warm_time the dead mid branch never fires: lr = final_LR * 0.1
    assert (df["lr"].iloc[3:] == T.FINAL_LR * 0.1).all()


def _turns_ds(payloads):
    import pyarrow as pa

    t = pa.table(
        {"conv_id": [str(i) for i in range(len(payloads))],
         "turn_idx": pa.array([0] * len(payloads), pa.int32()),
         "text": payloads}
    )
    return rd.from_arrow(t)


def test_loss_curve_batch_grouping_matches_manual(ray_session):
    # 9 payloads with boxes, batch_size=2 -> 4 full batches, 1 dropped
    payloads = [f"payload number {i} with enough words to form a block"
                for i in range(9)]
    curve = (
        T.train_loss_curve(_turns_ds(payloads), batch_size=2)
        .to_pandas().sort_values("batch_id").reset_index(drop=True)
    )
    assert list(curve["batch_id"]) == [0, 1, 2, 3]

    # manual replay: partials -> shuffle order -> pairs -> loss formula
    parts = []
    for i, p in enumerate(payloads):
        row = T._image_partials(i, normalize_text(p))
        assert row is not None
        parts.append(row)
    order = sorted(
        range(9), key=lambda i: (T._mix64_int(parts[i][0]), parts[i][0])
    )
    for b in range(4):
        lg = inter = u2 = reg = 0.0
        u1 = npx = nb = 0
        for i in order[2 * b:2 * b + 2]:
            _, l, it, a, b2, nx, rg, n_ = parts[i]
            lg += l
            inter += it
            u1 += a
            u2 += b2
            npx += nx
            reg += rg
            nb += n_
        union = (float(u1) + u2) + T.DICE_EPS
        det = (lg / float(npx)) + (1.0 - (2.0 * inter / union)) * 0.01
        regl = T.THETA * (reg / float(nb)) if nb else 0.0
        assert curve["det_loss"].iloc[b] == pytest.approx(det, rel=1e-12)
        assert curve["reg_loss"].iloc[b] == pytest.approx(regl, rel=1e-12)
        assert curve["total_loss"].iloc[b] == pytest.approx(det + regl, rel=1e-12)


def test_checkpoints_running_best(ray_session):
    # synthetic curve: 60 batches -> 3 eval windows with known averages
    totals = ([1.0] * 20) + ([0.5] * 20) + ([0.8] * 20)
    curve = rd.from_pandas(pd.DataFrame(
        {"batch_id": np.arange(60, dtype=np.int64),
         "det_loss": np.asarray(totals) / 2.0,
         "reg_loss": np.asarray(totals) / 2.0,
         "total_loss": np.asarray(totals, dtype=np.float64),
         "n_boxes": np.ones(60, dtype=np.int64)}
    ))
    out = (
        T.train_checkpoints(curve)
        .to_pandas().sort_values("eval_idx").reset_index(drop=True)
    )
    assert list(out["eval_idx"]) == [0, 1, 2]
    assert list(out["now_total"]) == pytest.approx([1.0, 0.5, 0.8])
    # 1.0 < 1000 best; 0.5 < 1.0 best; 0.8 not < 0.5
    assert list(out["is_best"]) == [1, 1, 0]


def test_checkpoints_partial_window_dropped(ray_session):
    curve = rd.from_pandas(pd.DataFrame(
        {"batch_id": np.arange(30, dtype=np.int64),
         "det_loss": np.zeros(30), "reg_loss": np.zeros(30),
         "total_loss": np.ones(30), "n_boxes": np.ones(30, dtype=np.int64)}
    ))
    out = T.train_checkpoints(curve).to_pandas()
    assert list(out["eval_idx"]) == [0]


def test_augment_deterministic_and_length_preserving():
    text = "The Quick Brown Fox jumps over 13 lazy dogs! repeatedly."
    for seed in range(20):
        draw1 = T._hash_stream(f"k{seed}".encode())
        draw2 = T._hash_stream(f"k{seed}".encode())
        a1 = T.augment_payload(text, draw1)
        a2 = T.augment_payload(text, draw2)
        assert a1 == a2
        assert len(a1) == len(text)
        # whitespace positions never move (GT offsets survive)
        assert [i for i, c in enumerate(a1) if c.isspace()] == \
               [i for i, c in enumerate(text) if c.isspace()]


def test_crop_keeps_whole_blocks():
    text = "a" * 200
    blocks = [(20, 50), (90, 130), (160, 190)]
    for seed in range(30):
        draw = T._hash_stream(f"c{seed}".encode())
        cropped, kept, xmin, xmax = T.crop_payload(text, blocks, draw)
        assert cropped == text[xmin:xmax + 1] or (xmin, xmax) == (0, 199)
        assert len(cropped) >= int(0.1 * len(text))
        for i in kept:
            gs, ge = blocks[i]
            if (xmin, xmax) != (0, 199):
                assert gs >= xmin and ge - 1 <= xmax


def test_crop_no_free_axis_returns_whole():
    text = "b" * 50
    draw = T._hash_stream(b"x")
    cropped, kept, xmin, xmax = T.crop_payload(text, [(0, 50)], draw)
    assert cropped == text and kept == [0]


def test_build_examples_deterministic_and_invariant(ray_session):
    payloads = [
        f"paragraph {i} alpha beta gamma delta epsilon zeta eta theta\n\n"
        f"second block {i} with more than ten characters" for i in range(12)
    ] + ["### all ignored run long enough", ""]
    ds1 = T.build_training_examples(_turns_ds(payloads)).to_pandas()
    ds2 = T.build_training_examples(
        _turns_ds(payloads).repartition(5)
    ).to_pandas()
    k = ["conv_id", "turn_idx"]
    ds1 = ds1.sort_values(k).reset_index(drop=True)
    ds2 = ds2.sort_values(k).reset_index(drop=True)
    assert len(ds1) == len(ds2)
    assert (ds1["n_boxes"] == ds2["n_boxes"]).all()
    assert (ds1["crop_start"] == ds2["crop_start"]).all()
    for row in ds1.itertuples(index=False):
        assert row.n_px <= T.INPUT_SIZE
        assert row.n_boxes == len(row.labels)
        assert all(w <= T.MAX_BOX_WIDTH for w in row.box_widths)
        for lab in row.labels:
            assert len(lab) > 0
            assert all(0 <= v < C.NUM_CLASSES - 1 for v in lab)
    # the all-ignored and empty payloads are dropped
    assert "12" not in set(ds1["conv_id"])
    assert "13" not in set(ds1["conv_id"])


def test_assemble_batches_caps_and_coo(ray_session):
    payloads = [
        f"block {i} alpha beta gamma delta epsilon zeta eta theta iota"
        for i in range(9)
    ]
    ex = T.build_training_examples(_turns_ds(payloads))
    out = T.assemble_batches(ex, batch_size=2).to_pandas()
    n_examples = ex.count()
    assert len(out) == n_examples // 2  # full batches only
    for row in out.itertuples(index=False):
        assert row.n_images == 2
        assert row.n_boxes_capped <= T.MAX_BOX_NUM
        assert row.dense_shape_0 == row.n_boxes_capped
        # COO triplets consistent: positions dense per box, values in range
        box = list(row.sparse_indices_box)
        pos = list(row.sparse_indices_pos)
        val = list(row.sparse_values)
        assert len(box) == len(pos) == len(val)
        if box:
            assert max(pos) + 1 == row.dense_shape_1
            for b in set(box):
                ps = [p for bb, p in zip(box, pos) if bb == b]
                assert ps == list(range(len(ps)))
        assert all(0 <= v < C.NUM_CLASSES - 1 for v in val)

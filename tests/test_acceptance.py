"""Release acceptance suite.

One test per criterion; each prints a PASS/FAIL line in the terminal
summary so the gate can be read off a plain pytest run. Tests build their
own fixtures and compare against the independent oracles in oracles.py.
"""

import json
import shutil
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import conftest
from cardioprior import (
    GRADCHECK_LOSSES,
    N_CLASSES,
    Jitter,
    LandmarkSet,
    LossConfig,
    PhantomSpec,
    RigidTransform,
    TrainConfig,
    Volume3,
    aggregate,
    argmax_labels,
    build_atlas,
    canonical_volumes,
    case_descriptor,
    class_centroids,
    evaluate_case,
    experiment_weights,
    feature_names,
    generate,
    gpa_align,
    gradcheck,
    init_model,
    one_hot,
    overlap,
    predict,
    procrustes_fit,
    relations,
    soft_centroid,
    soft_second_moment,
    soft_volume,
    surface_distances,
    train,
)
from cardioprior.cli import main
from conftest import label_volume
from oracles import (
    brute_hard_centroid,
    brute_overlap,
    brute_soft_second_moment,
    brute_surface_metrics,
    random_label_volume,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        conftest.ACCEPTANCE_LINES.append(f"{name}: FAIL")
        raise
    conftest.ACCEPTANCE_LINES.append(f"{name}: PASS")


def random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def test_criterion_1_gradient_suite():
    with criterion("1 gradient suite: 5 losses, FD rel err < 1e-6, < 60 s"):
        t0 = time.perf_counter()
        for loss in GRADCHECK_LOSSES:
            report = gradcheck(loss, size=8, seed=0)
            assert report["max_rel_err"] < 1e-6, (loss, report)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_2_metric_oracles():
    with criterion("2 metric oracle suite: 200 random pairs within 1e-9"):
        rng = np.random.default_rng(42)
        n_pairs = 0
        for _ in range(200):
            dims = tuple(int(d) for d in rng.integers(4, 13, size=3))
            spacing = tuple(float(s) for s in rng.choice((0.8, 1.0, 1.7, 2.5), size=3))
            pred = label_volume(random_label_volume(rng, dims, n_blobs=2, classes=(1, 2, 3)),
                                spacing)
            gt = label_volume(random_label_volume(rng, dims, n_blobs=2, classes=(1, 2, 3)),
                              spacing)
            n_pairs += 1
            for c in (1, 2, 3):
                dice, jacc = overlap(pred, gt, c)
                o_dice, o_jacc = brute_overlap(pred, gt, c)
                if o_dice is None:
                    assert dice is None and jacc is None
                    continue
                assert abs(dice - o_dice) < 1e-9
                assert abs(jacc - o_jacc) < 1e-9
                assert abs(jacc - dice / (2.0 - dice)) < 1e-12
                if (pred.data == c).any() and (gt.data == c).any():
                    hd, assd = surface_distances(pred, gt, c)
                    o_hd, o_assd = brute_surface_metrics(pred, gt, c, spacing)
                    assert abs(hd - o_hd) < 1e-9
                    assert abs(assd - o_assd) < 1e-9
        assert n_pairs >= 200

        # hand fixtures: half-overlapping cubes and a two-voxel 6 mm gap
        a = np.zeros((5, 4, 4), dtype=np.uint8)
        a[0:2, 0:2, 0:2] = 1
        b = np.zeros((5, 4, 4), dtype=np.uint8)
        b[1:3, 0:2, 0:2] = 1
        assert overlap(label_volume(a), label_volume(b), 1) == (0.5, 4.0 / 12.0)
        s = np.zeros((6, 3, 3), dtype=np.uint8)
        s[1, 1, 1] = 1
        t = np.zeros((6, 3, 3), dtype=np.uint8)
        t[4, 1, 1] = 1
        hd, assd = surface_distances(label_volume(s, (2.0, 2.0, 2.0)),
                                     label_volume(t, (2.0, 2.0, 2.0)), 1)
        assert hd == 6.0 and assd == 6.0


def test_criterion_3_procrustes_suite():
    with criterion("3 Procrustes: 100 recoveries within 1e-9, GPA non-increasing"):
        rng = np.random.default_rng(7)
        mask = np.ones(7, dtype=bool)
        for _ in range(100):
            pts = 40.0 * rng.standard_normal((7, 3))
            src = LandmarkSet(pts, mask)
            rot = random_rotation(rng)
            t = 25.0 * rng.standard_normal(3)
            rigid = RigidTransform(rot, t, 1.0)
            fit, resid = procrustes_fit(src, LandmarkSet(rigid.apply(pts), mask))
            assert np.abs(fit.rotation - rot).max() < 1e-9
            assert np.abs(fit.translation - t).max() < 1e-9
            assert fit.scale == 1.0 and resid < 1e-9

            s = float(rng.uniform(0.5, 2.0))
            sim = RigidTransform(rot, t, s)
            fit, resid = procrustes_fit(src, LandmarkSet(sim.apply(pts), mask),
                                        with_scale=True)
            assert np.abs(fit.rotation - rot).max() < 1e-9
            assert np.abs(fit.translation - t).max() < 1e-9
            assert abs(fit.scale - s) < 1e-9 and resid < 1e-9

        spec = PhantomSpec(jitter=Jitter(pose_rotation_max_deg=8.0, translation_max_mm=3.0,
                                         scale_range=(0.97, 1.03), axis_variation=0.04))
        sets = [class_centroids(generate(spec, i)[1]) for i in range(20)]
        _, _, objective = gpa_align(sets, gpa_iters=4)
        assert len(objective) == 4
        for prev, cur in zip(objective, objective[1:]):
            assert cur <= prev + 1e-9


def test_criterion_4_atlas_suite(phantom_case):
    with criterion("4 atlas: class sum 1 within 1e-6, range [0,1], single case binary"):
        grid = PhantomSpec().grid
        single = build_atlas([phantom_case[1]], grid)
        assert set(np.unique(single.heatmaps).tolist()) <= {0.0, 1.0}
        multi = build_atlas([generate(PhantomSpec(), i)[1] for i in range(5)], grid)
        for atlas in (single, multi):
            assert np.abs(atlas.heatmaps.sum(axis=0) - 1.0).max() < 1e-6
            assert atlas.heatmaps.min() >= 0.0 and atlas.heatmaps.max() <= 1.0


def test_criterion_5_shape_stats_suite(phantom_case, rng):
    with criterion("5 shape stats: brute match 1e-12, rigid invariance, volumes 2%"):
        data = random_label_volume(rng, (12, 11, 10), n_blobs=4,
                                   classes=tuple(range(1, 8)))
        labels = Volume3(data, (1.1, 0.9, 1.4), (-3.0, 2.0, 1.0))
        p = one_hot(labels)
        for c in range(1, N_CLASSES):
            count = int((data == c).sum())
            if count == 0:
                continue
            hard_vol = count * labels.voxel_volume
            assert abs(soft_volume(p, c) - hard_vol) <= 1e-12 * (1.0 + hard_vol)
            hard_cent = brute_hard_centroid(labels, c)
            assert np.abs(soft_centroid(p, c) - hard_cent).max() <= 1e-12 * 20.0
            hard_mom = brute_soft_second_moment(p, c)
            assert np.abs(soft_second_moment(p, c) - hard_mom).max() <= 1e-12 * 200.0

        lm = class_centroids(phantom_case[1])
        pair0, triple0 = relations(lm.points, lm.present_mask)
        moved = RigidTransform(random_rotation(rng), np.array([8.0, -5.0, 12.0]), 1.0)
        pair1, triple1 = relations(moved.apply(lm.points), lm.present_mask)
        for rel0, rel1 in ((pair0, pair1), (triple0, triple1)):
            # the same relations are skipped (nan), and no kept one moves by 1e-9
            np.testing.assert_array_equal(np.isnan(rel0), np.isnan(rel1))
            kept = ~np.isnan(rel0)
            assert (np.abs(rel0[kept] - rel1[kept]) < 1e-9).all()

        _, lab = generate(PhantomSpec(jitter=Jitter.none()), 0)
        for c, v_true in canonical_volumes().items():
            measured = float((lab.data == c).sum()) * lab.voxel_volume
            assert abs(measured - v_true) / v_true < 0.02, (c, measured, v_true)


def test_criterion_6_end_to_end_phantom_experiment():
    with criterion("6 end-to-end: 4 configs converge, beat uniform, volume z <= baseline"):
        t0 = time.perf_counter()
        spec = PhantomSpec()
        cases = [generate(spec, i) for i in range(20)]
        train_cases, test_cases = cases[:15], cases[15:]
        stats = aggregate([case_descriptor(one_hot(lab)) for _, lab in train_cases])
        atlas = build_atlas([lab for _, lab in train_cases], spec.grid)
        names = feature_names(True)

        def macro_dice(model):
            per_case = []
            for img, lab in test_cases:
                pred = argmax_labels(predict(model, img, atlas))
                per_case.append(evaluate_case(pred, lab).macro["dice"])
            return float(np.mean(per_case))

        def mean_abs_volume_z(model):
            zs = []
            for img, _ in test_cases:
                p = predict(model, img, atlas)
                for c in range(1, N_CLASSES):
                    if stats.class_usable(c) and stats.volume_std[c] > 0.0:
                        zs.append(abs(soft_volume(p, c) - stats.volume_mean[c])
                                  / stats.volume_std[c])
            return float(np.mean(zs))

        uniform_dice = macro_dice(init_model(names))
        assert uniform_dice < 0.05

        models = {}
        for config in ("baseline", "volume", "moment", "relation"):
            cfg = TrainConfig(atlas=atlas,
                              loss=LossConfig(weights=experiment_weights(config), stats=stats))
            models[config], _ = train(init_model(names), train_cases, cfg)  # no NonfiniteLoss
            dice = macro_dice(models[config])
            assert dice > uniform_dice + 0.3, (config, dice, uniform_dice)

        assert mean_abs_volume_z(models["volume"]) <= mean_abs_volume_z(models["baseline"])
        assert time.perf_counter() - t0 < 600.0


def _copy_pair(src_mhd, dst_dir):
    dst_dir.mkdir(exist_ok=True)
    shutil.copy(src_mhd, dst_dir / src_mhd.name)
    raw = src_mhd.with_suffix(".raw")
    shutil.copy(raw, dst_dir / raw.name)


def _pipeline_summary(root, jobs):
    j = str(jobs)
    train_d, test_d = root / "train", root / "test"
    labels_d, gt_d = root / "labels", root / "gt"
    assert main(["phantom", "--n", "4", "--size", "24", "--spacing", "4.0",
                 "--out", str(train_d), "--jobs", j]) == 0
    assert main(["phantom", "--n", "2", "--seed", "31", "--size", "24", "--spacing", "4.0",
                 "--out", str(test_d), "--jobs", j]) == 0
    for f in sorted(train_d.glob("case_*_label.mhd")):
        _copy_pair(f, labels_d)
    for f in sorted(test_d.glob("case_*_label.mhd")):
        _copy_pair(f, gt_d)
    stats_path = root / "shape_stats.json"
    assert main(["stats", "--labels", str(labels_d), "--out", str(stats_path),
                 "--jobs", j]) == 0
    atlas_d = root / "atlas"
    assert main(["atlas", "--labels", str(labels_d), "--out", str(atlas_d),
                 "--size", "24", "--spacing", "4.0", "--jobs", j]) == 0
    run_d = root / "run"
    assert main(["train", "--data", str(train_d), "--stats", str(stats_path),
                 "--atlas", str(atlas_d), "--epochs", "8", "--out", str(run_d),
                 "--test-data", str(test_d), "--jobs", j]) == 0
    eval_d = root / "run_eval"
    assert main(["eval", "--pred", str(run_d), "--gt", str(gt_d),
                 "--out", str(eval_d), "--jobs", j]) == 0
    report_d = root / "report"
    assert main(["report", "--runs", str(eval_d), "--out", str(report_d)]) == 0
    return (report_d / "summary.csv").read_bytes()


def test_criterion_7_pipeline_determinism(tmp_path):
    with criterion("7 determinism: byte-identical summary.csv across runs and --jobs"):
        runs = [_pipeline_summary(tmp_path / name, jobs)
                for name, jobs in (("r1", 1), ("r2", 1), ("r3", 4))]
        assert runs[0] == runs[1] == runs[2]


def test_criterion_8_report_golden_file(tmp_path):
    with criterion("8 report fidelity: golden summary with published baseline row"):
        run = tmp_path / "baseline"
        run.mkdir()
        macros = [
            {"dice": 0.90, "jaccard": 0.82, "hd_mm": 4.0, "assd_mm": 1.0},
            {"dice": 0.92, "jaccard": 0.84, "hd_mm": 5.0, "assd_mm": 1.5},
        ]
        for i, macro in enumerate(macros):
            doc = {"case_id": f"case_{i:03d}", "per_class": {}, "macro": macro}
            (run / f"report_case_{i:03d}.json").write_text(json.dumps(doc) + "\n")
        out = tmp_path / "summary"
        assert main(["report", "--runs", str(run), "--out", str(out)]) == 0
        golden = Path(__file__).parent / "data" / "golden_summary.csv"
        assert (out / "summary.csv").read_text() == golden.read_text()

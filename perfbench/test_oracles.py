"""Each benchmark oracle agrees with the program and rejects a deliberately wrong value.

    python3 -m pytest perfbench/test_oracles.py
"""

import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import cardioprior as cp  # noqa: E402
from cardioprior.cli import main  # noqa: E402

import bench_oracles as oracles  # noqa: E402
import tracing  # noqa: E402
from workloads import Gradcheck, Outcome  # noqa: E402

SPACING = (1.5, 1.0, 2.0)
OFFSET = (-3.0, 0.5, 1.25)


def blob_labels(seed: int, dims=(14, 12, 10)) -> cp.Volume3:
    """Random blocky labels with every class present."""
    rng = np.random.default_rng(seed)
    coarse = rng.integers(0, 8, size=tuple(-(-n // 3) for n in dims))
    lab = np.kron(coarse, np.ones((3, 3, 3), dtype=np.int64))[: dims[0], : dims[1], : dims[2]]
    lab.flat[:8] = np.arange(8)
    return cp.Volume3(lab.astype(np.uint8), SPACING, OFFSET)


def test_read_raw_matches_writer_and_rejects_a_corrupt_payload(tmp_path):
    vol = cp.Volume3(np.random.default_rng(0).standard_normal((5, 4, 3)).astype(np.float32),
                     SPACING, OFFSET)
    path = str(tmp_path / "v.mhd")
    cp.write_volume(vol, path)
    data, spacing, offset = oracles.read_raw(path)
    assert np.array_equal(data, vol.data) and spacing == SPACING and offset == OFFSET
    raw = tmp_path / "v.raw"
    payload = bytearray(raw.read_bytes())
    payload[4] ^= 0xFF  # second voxel along x: x is the fastest axis on disk
    raw.write_bytes(bytes(payload))
    data, _, _ = oracles.read_raw(path)
    assert data[1, 0, 0] != vol.data[1, 0, 0]
    raw.write_bytes(bytes(payload[:-4]))
    with pytest.raises(ValueError):
        oracles.read_raw(path)


def test_case_metrics_match_program_and_reject_a_wrong_value():
    gt = blob_labels(1)
    pred = cp.degrade(gt, "swap_boundary", 0.3, seed=2)
    report = cp.evaluate_case(pred, gt, case_id="c", include_hd95=True).to_dict()
    oracle = oracles.case_metrics(pred.data, gt.data, SPACING, with_hd95=True)
    assert oracles.report_errors(report, oracle) == []
    for cls, key in (("LV", "dice"), ("RV", "jaccard"), ("LA", "hd_mm"),
                     ("RA", "assd_mm"), ("myocardium", "hd95_mm")):
        wrong = json.loads(json.dumps(report))
        wrong["classes"][cls][key] += 1e-6
        assert oracles.report_errors(wrong, oracle), (cls, key)
    wrong = json.loads(json.dumps(report))
    wrong["classes"]["LV"]["gt_voxels"] += 1
    assert oracles.report_errors(wrong, oracle)


def test_surface_points_match_program_surface_voxels():
    lab = blob_labels(3)
    for c in range(1, 8):
        want = cp.surface_voxels(lab, c) * np.asarray(SPACING)
        assert np.array_equal(oracles.surface_points(lab.data, c, SPACING), want)


def test_class_absent_from_prediction_has_no_surface_metrics():
    gt = blob_labels(4)
    pred = cp.degrade(gt, "drop_class", 3)
    report = cp.evaluate_case(pred, gt).to_dict()
    oracle = oracles.case_metrics(pred.data, gt.data, SPACING, with_hd95=False)
    assert oracle["classes"]["LA"]["hd_mm"] is None
    assert oracles.report_errors(report, oracle) == []


@pytest.mark.parametrize("config", ["baseline", "volume", "moment", "relation"])
def test_epoch0_objective_is_the_closed_form(config):
    cases = []
    for k in range(3):
        lab = blob_labels(10 + k)
        img = cp.Volume3((40.0 * lab.data + k).astype(np.float32), SPACING, OFFSET)
        cases.append((img, lab))
    stats = cp.aggregate([cp.case_descriptor(cp.one_hot(lab)) for _, lab in cases])
    weights = cp.experiment_weights(config)
    cfg = cp.TrainConfig(epochs=1, loss=cp.LossConfig(weights=weights, stats=stats))
    _, trace = cp.train(cp.init_model(cp.feature_names(False)), cases, cfg)
    args = ([lab.data for _, lab in cases], SPACING, OFFSET, stats.volume_mean,
            stats.volume_std, stats.class_n, stats.centroid_mean, stats.second_moment_mean)
    want = oracles.epoch0_objective(weights, *args)
    assert trace[0]["total"] == pytest.approx(want, rel=1e-12, abs=0.0)
    if config == "relation":
        assert trace[0]["relation_dist"] == trace[0]["relation_angle"] == 0.0
    elif config != "baseline":
        # the same objective without the config's prior is a wrong value
        assert oracles.epoch0_objective(cp.experiment_weights("baseline"), *args) != \
            pytest.approx(want, rel=1e-9, abs=0.0)
    # so is the objective of other labels
    other = [blob_labels(20 + k).data for k in range(3)]
    assert oracles.epoch0_objective(weights, other, *args[1:]) != \
        pytest.approx(want, rel=1e-9, abs=0.0)


def test_epoch0_objective_with_aux_head():
    cases = [(cp.Volume3(np.ones((8, 8, 8), np.float32) * k, (2.0,) * 3,
                         cp.FovSpec((8, 8, 8), 2.0).origin_centered_offset()),
              cp.Volume3(blob_labels(20 + k, (8, 8, 8)).data, (2.0,) * 3,
                         cp.FovSpec((8, 8, 8), 2.0).origin_centered_offset()))
             for k in range(2)]
    atlas = cp.build_atlas([lab for _, lab in cases], cp.FovSpec((8, 8, 8), 2.0))
    stats = cp.aggregate([cp.case_descriptor(cp.one_hot(lab)) for _, lab in cases])
    weights = cp.experiment_weights("volume")
    cfg = cp.TrainConfig(epochs=1, atlas=atlas, aux_weight=0.5,
                         loss=cp.LossConfig(weights=weights, stats=stats))
    _, trace = cp.train(cp.init_model(cp.feature_names(True), aux=True), cases, cfg)
    args = (weights, [lab.data for _, lab in cases], (2.0,) * 3, cases[0][1].offset,
            stats.volume_mean, stats.volume_std, stats.class_n, stats.centroid_mean,
            stats.second_moment_mean)
    want = oracles.epoch0_objective(*args, aux_weight=0.5, aux_target=atlas.heatmaps)
    assert trace[0]["total"] == pytest.approx(want, rel=1e-12, abs=0.0)
    assert oracles.epoch0_objective(*args) != pytest.approx(want, rel=1e-9, abs=0.0)


def test_grid_moments_match_program_soft_moments():
    p = cp.ProbVolume(np.full((8, 6, 5, 4), 1.0 / 8.0), SPACING, OFFSET)
    centroid, moment = oracles.grid_moments((6, 5, 4), SPACING, OFFSET)
    assert np.allclose(cp.soft_centroid(p, 1), centroid, rtol=1e-12, atol=1e-12)
    assert np.allclose(cp.soft_second_moment(p, 1), moment, rtol=1e-12, atol=1e-12)


def test_volume_means_match_program_stats():
    labels = [blob_labels(30 + k) for k in range(3)]
    stats = cp.aggregate([cp.case_descriptor(cp.one_hot(lab)) for lab in labels])
    want = oracles.volume_means([lab.data for lab in labels], SPACING)
    assert np.allclose(stats.volume_mean[1:], want[1:], rtol=1e-12, atol=0.0)


def test_heatmap_errors():
    labels = [cp.Volume3(blob_labels(40 + k, (8, 8, 8)).data, (2.0,) * 3) for k in range(3)]
    atlas = cp.build_atlas(labels, cp.FovSpec((8, 8, 8), 2.0))
    assert oracles.heatmap_errors(atlas.heatmaps) == []
    wrong = atlas.heatmaps.copy()
    wrong[1, 0, 0, 0] += 1e-5
    assert oracles.heatmap_errors(wrong)
    wrong = atlas.heatmaps.copy()
    wrong[0, 0, 0, 0] = -1e-3
    assert oracles.heatmap_errors(wrong)


def test_strictly_decreasing():
    assert oracles.strictly_decreasing([3.0, 2.0, 1.5])
    assert not oracles.strictly_decreasing([3.0, 2.0, 2.0])
    assert not oracles.strictly_decreasing([3.0, 2.5, 2.6])


def _labels_dir(tmp_path, n=2):
    d = tmp_path / "labels"
    d.mkdir()
    for k in range(n):
        cp.write_volume(blob_labels(50 + k), str(d / f"case_{k:03d}_label.mhd"))
    return d


def test_manifest_errors_recompute_input_hashes(tmp_path):
    labels = _labels_dir(tmp_path)
    out = tmp_path / "stats" / "stats.json"
    assert main(["stats", "--labels", str(labels), "--out", str(out)]) == 0
    assert oracles.manifest_errors(str(out.parent), "stats") == []
    assert oracles.manifest_errors(str(out.parent), "atlas")
    raw = labels / "case_001_label.raw"
    payload = bytearray(raw.read_bytes())
    payload[0] ^= 1
    raw.write_bytes(bytes(payload))
    assert oracles.manifest_errors(str(out.parent), "stats")


def test_summary_rows_recomputed_from_reports(tmp_path):
    labels = _labels_dir(tmp_path)
    pred = tmp_path / "pred"
    pred.mkdir()
    for k in range(2):
        gt = blob_labels(50 + k)
        cp.write_volume(cp.degrade(gt, "swap_boundary", 0.2, seed=k),
                        str(pred / f"case_{k:03d}_pred.mhd"))
    runs = [str(tmp_path / "run_a"), str(tmp_path / "run_b")]
    for run, extra in zip(runs, ([], ["--hd95"])):
        assert main(["eval", "--pred", str(pred), "--gt", str(labels), "--out", run] + extra) == 0
    assert main(["report", "--runs", *runs, "--out", str(tmp_path / "rep")]) == 0
    lines = (tmp_path / "rep" / "summary.csv").read_text().splitlines()
    assert lines[2:] == oracles.summary_rows(runs)
    report = os.path.join(runs[0], "report_case_000_label.json")
    with open(report) as fh:
        doc = json.load(fh)
    doc["macro"]["dice"] += 0.01
    with open(report, "w") as fh:
        json.dump(doc, fh)
    assert lines[2:] != oracles.summary_rows(runs)


def test_gradcheck_gate_rejects_an_error_above_1e6():
    report = cp.gradcheck("volume", size=Gradcheck.SIZE, seed=0)
    outcome = Outcome()
    Gradcheck.check_round(Gradcheck, {"reports": {"volume": report}}, outcome)
    assert (outcome.attempted, outcome.failed) == (1, 0)
    Gradcheck.check_round(Gradcheck, {"reports": {"volume": dict(report, max_rel_err=2e-6)}},
                          outcome)
    assert (outcome.attempted, outcome.failed, outcome.check_failures) == (2, 1, 1)


def test_tracer_self_time_counts_overlapping_children_once():
    tr = tracing.Tracer()
    tr.names = ["parent", "child"]
    # parent [0, 10]; children [1, 4] and [2, 6] overlap, [8, 12] sticks out of the parent
    tr.spans = [[0, 0.0, 10.0, -1, 1], [1, 1.0, 4.0, 0, 1], [1, 2.0, 6.0, 0, 1],
                [1, 8.0, 12.0, 0, 1]]
    assert tr.self_times().tolist() == [10.0 - 5.0 - 2.0, 3.0, 4.0, 4.0]


def test_tracer_wraps_names_imported_elsewhere_and_restores_them():
    import cardioprior.cli as cli_mod
    import cardioprior.trainer as trainer_mod
    originals = (cp.losses.total_loss, trainer_mod.total_loss, cli_mod.evaluate_case)
    tr = tracing.Tracer()
    tr.install()
    try:
        assert trainer_mod.total_loss is not originals[1]
        assert cli_mod.evaluate_case is not originals[2]
        lab = blob_labels(60)
        cp.evaluate_case(lab, lab)
    finally:
        tr.restore()
    assert (cp.losses.total_loss, trainer_mod.total_loss, cli_mod.evaluate_case) == originals
    names = {tr.names[s[0]] for s in tr.spans}
    assert {"metrics.evaluate_case", "metrics.overlap", "metrics.surface_distances"} <= names
    metrics = tr.layer_metrics(setups=1, rounds=1)
    assert metrics["metrics.evaluate_case.calls"] == (1.0, "count")
    assert metrics["metrics.overlap.calls"] == (7.0, "count")
    # a function never called still reports every metric, at 0
    assert metrics["trainer.train.calls"] == (0.0, "count")
    assert metrics["trainer.train.ms_per_call"] == (0.0, "ms")
    assert metrics["cli.cmd_eval.self_s"] == (0.0, "s")

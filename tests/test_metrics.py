import numpy as np
import pytest

from cardioprior import (
    EmptySurface,
    ShapeMismatch,
    evaluate_case,
    overlap,
    surface_distances,
    surface_voxels,
)
from conftest import label_volume
from oracles import (
    brute_overlap,
    brute_surface_metrics,
    full_grid_surface_distances,
    random_label_volume,
    surface_distances_bruteforce,
)


class TestOverlap:
    def test_identical_nonempty(self):
        lab = np.zeros((5, 5, 5), dtype=np.uint8)
        lab[1:4, 1:4, 1:4] = 2
        v = label_volume(lab)
        assert overlap(v, v, 2) == (1.0, 1.0)

    def test_half_overlapping_cubes(self):
        # two 2x2x2 cubes sharing a 1x2x2 slab: dice 8/16, jaccard 4/12
        gt = np.zeros((5, 4, 4), dtype=np.uint8)
        gt[0:2, 0:2, 0:2] = 1
        pred = np.zeros((5, 4, 4), dtype=np.uint8)
        pred[1:3, 0:2, 0:2] = 1
        dice, jacc = overlap(label_volume(pred), label_volume(gt), 1)
        assert dice == pytest.approx(0.5)
        assert jacc == pytest.approx(1.0 / 3.0)

    def test_disjoint(self):
        gt = np.zeros((6, 4, 4), dtype=np.uint8)
        gt[0:2, :2, :2] = 3
        pred = np.zeros((6, 4, 4), dtype=np.uint8)
        pred[4:6, :2, :2] = 3
        assert overlap(label_volume(pred), label_volume(gt), 3) == (0.0, 0.0)

    def test_empty_in_both_is_absent(self):
        v = label_volume(np.zeros((4, 4, 4)))
        assert overlap(v, v, 5) == (None, None)

    def test_one_side_empty_is_zero(self):
        gt = np.zeros((4, 4, 4), dtype=np.uint8)
        gt[1, 1, 1] = 4
        assert overlap(label_volume(np.zeros((4, 4, 4))), label_volume(gt), 4) == (0.0, 0.0)

    def test_grid_mismatch(self):
        with pytest.raises(ShapeMismatch):
            overlap(label_volume(np.zeros((4, 4, 4))), label_volume(np.zeros((5, 4, 4))), 1)


class TestSurfaceVoxels:
    def test_single_voxel_is_its_own_surface(self):
        lab = np.zeros((5, 5, 5), dtype=np.uint8)
        lab[2, 2, 2] = 1
        sv = surface_voxels(label_volume(lab), 1)
        assert sv.tolist() == [[2, 2, 2]]

    def test_solid_cube_surface_count(self):
        lab = np.zeros((5, 5, 5), dtype=np.uint8)
        lab[1:4, 1:4, 1:4] = 6
        assert surface_voxels(label_volume(lab), 6).shape[0] == 26

    def test_empty_class(self):
        assert surface_voxels(label_volume(np.zeros((4, 4, 4))), 2).shape[0] == 0

    def test_array_face_counts_as_exposed(self):
        lab = np.full((3, 3, 3), 7, dtype=np.uint8)
        assert surface_voxels(label_volume(lab), 7).shape[0] == 26  # all but the center


class TestSurfaceDistances:
    def test_identical_surfaces(self):
        lab = np.zeros((6, 6, 6), dtype=np.uint8)
        lab[2:5, 1:4, 2:4] = 1
        v = label_volume(lab, (1.7, 0.9, 1.2))
        hd, assd = surface_distances(v, v, 1)
        assert hd == 0.0 and assd == 0.0

    def test_two_voxels_hand_geometry(self):
        gt = np.zeros((6, 3, 3), dtype=np.uint8)
        gt[1, 1, 1] = 2
        pred = np.zeros((6, 3, 3), dtype=np.uint8)
        pred[4, 1, 1] = 2
        hd, assd = surface_distances(
            label_volume(pred, (2.0, 2.0, 2.0)), label_volume(gt, (2.0, 2.0, 2.0)), 2
        )
        assert hd == pytest.approx(6.0)
        assert assd == pytest.approx(6.0)

    def test_empty_surface_raises(self):
        gt = np.zeros((4, 4, 4), dtype=np.uint8)
        gt[1, 1, 1] = 1
        with pytest.raises(EmptySurface):
            surface_distances(label_volume(np.zeros((4, 4, 4))), label_volume(gt), 1)

    def test_edt_matches_both_bruteforce_routes(self, rng):
        spacing = (1.3, 0.8, 2.1)
        for trial in range(25):
            pred = label_volume(random_label_volume(rng, (10, 9, 8)), spacing)
            gt = label_volume(random_label_volume(rng, (10, 9, 8)), spacing)
            for c in (1, 2, 3):
                ref_hd, ref_assd = brute_surface_metrics(pred, gt, c, spacing)
                if ref_hd is None:
                    continue
                hd, assd = surface_distances(pred, gt, c)
                bhd, bassd = surface_distances_bruteforce(pred, gt, c)
                assert abs(hd - ref_hd) < 1e-9
                assert abs(assd - ref_assd) < 1e-9
                assert abs(bhd - ref_hd) < 1e-9
                assert abs(bassd - ref_assd) < 1e-9
                assert hd >= assd >= 0.0


class TestSurfaceDistancesOnTheClassBox:
    """The padded per-class box changes no distance: == the full-grid EDT route."""

    SPACING = (1.3, 0.8, 2.1)
    DIMS = (12, 10, 9)

    def assert_same(self, pred, gt, c):
        pred, gt = label_volume(pred, self.SPACING), label_volume(gt, self.SPACING)
        want = full_grid_surface_distances(pred, gt, c, with_hd95=True)
        assert surface_distances(pred, gt, c, with_hd95=True) == want
        assert surface_distances(pred, gt, c) == want[:2]

    def test_random_label_volumes(self, rng):
        checked = 0
        for _ in range(40):
            pred, gt = (random_label_volume(rng, self.DIMS, n_blobs=5) for _ in range(2))
            for c in range(1, 8):
                if (pred == c).any() and (gt == c).any():
                    self.assert_same(pred, gt, c)
                    checked += 1
        assert checked >= 40

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("side", [0, -1])
    def test_class_touching_an_array_face(self, axis, side):
        gt = np.zeros(self.DIMS, dtype=np.uint8)
        gt[3:8, 2:7, 2:6] = 4
        face = [slice(2, 6)] * 3
        face[axis] = side
        gt[tuple(face)] = 4
        shifted = np.roll(gt, 1, axis=(axis + 1) % 3)
        off_face = gt.copy()
        off_face[tuple(face)] = 0
        for pred in (shifted, off_face):
            self.assert_same(pred, gt, 4)
            self.assert_same(gt, pred, 4)

    def test_single_voxel_class(self):
        gt = np.zeros(self.DIMS, dtype=np.uint8)
        gt[5, 4, 4] = 2
        block = np.zeros(self.DIMS, dtype=np.uint8)
        block[7:10, 1:4, 5:8] = 2
        corner = np.zeros(self.DIMS, dtype=np.uint8)
        corner[0, 0, 0] = 2
        for pred in (gt, block, corner):
            self.assert_same(pred, gt, 2)
            self.assert_same(gt, pred, 2)

    def test_class_in_one_volume_only_has_no_surface(self):
        gt = np.zeros(self.DIMS, dtype=np.uint8)
        gt[2:5, 3:6, 1:4] = 3
        pred = np.where(gt == 3, 5, 0).astype(np.uint8)
        for a, b in ((pred, gt), (gt, pred)):
            a, b = label_volume(a, self.SPACING), label_volume(b, self.SPACING)
            for c in (3, 5):
                with pytest.raises(EmptySurface):
                    full_grid_surface_distances(a, b, c)
                with pytest.raises(EmptySurface):
                    surface_distances(a, b, c)

    def test_two_far_apart_blobs(self):
        gt = np.zeros(self.DIMS, dtype=np.uint8)
        gt[0:2, 0:3, 0:2] = 6
        gt[9:12, 7:10, 6:9] = 6
        near = gt.copy()
        near[9:12, 7:10, 6:9] = 0
        near[1:4, 1:3, 1:3] = 6
        inner = np.zeros(self.DIMS, dtype=np.uint8)
        inner[1:3, 1:3, 1:3] = 6
        inner[8:10, 6:8, 5:7] = 6
        for pred in (near, inner):
            self.assert_same(pred, gt, 6)
            self.assert_same(gt, pred, 6)


class TestEvaluateCase:
    def test_perfect_phantom_prediction(self, phantom_case):
        _, labels = phantom_case
        report = evaluate_case(labels, labels, case_id="self")
        for c, m in report.per_class.items():
            if m.gt_voxels == 0:
                continue
            assert m.dice == 1.0 and m.jaccard == 1.0
            assert m.hd_mm == 0.0 and m.assd_mm == 0.0
        assert report.macro["dice"] == 1.0
        assert report.macro["hd_mm"] == 0.0

    def test_macro_hand_arithmetic(self):
        gt = np.zeros((8, 4, 4), dtype=np.uint8)
        gt[0:2, 0:2, 0:2] = 1
        gt[5, 1, 1] = 2
        gt[6, 1, 1] = 2
        pred = gt.copy()
        pred[5, 1, 1] = 0
        pred[7, 1, 1] = 2  # class 2: dice 2*1/(2+2) = 0.5; class 1 untouched
        report = evaluate_case(label_volume(pred), label_volume(gt))
        assert report.per_class[1].dice == 1.0
        assert report.per_class[2].dice == 0.5
        assert report.macro["dice"] == pytest.approx(0.75)

    def test_jaccard_dice_identity(self, rng):
        pred = label_volume(random_label_volume(rng, (9, 9, 9), n_blobs=4))
        gt = label_volume(random_label_volume(rng, (9, 9, 9), n_blobs=4))
        report = evaluate_case(pred, gt)
        for m in report.per_class.values():
            if m.dice is None:
                assert m.jaccard is None
                continue
            assert m.jaccard == pytest.approx(m.dice / (2.0 - m.dice), abs=1e-12)

    def test_overlap_matches_set_oracle(self, rng):
        pred = label_volume(random_label_volume(rng, (8, 8, 8)))
        gt = label_volume(random_label_volume(rng, (8, 8, 8)))
        report = evaluate_case(pred, gt)
        for c, m in report.per_class.items():
            ref_dice, ref_jacc = brute_overlap(pred, gt, c)
            if ref_dice is None:
                assert m.dice is None
            else:
                assert m.dice == pytest.approx(ref_dice, abs=1e-12)
                assert m.jaccard == pytest.approx(ref_jacc, abs=1e-12)

    def test_absent_surface_excluded_from_macro(self):
        gt = np.zeros((6, 6, 6), dtype=np.uint8)
        gt[1:3, 1:3, 1:3] = 1
        gt[4, 4, 4] = 2
        pred = gt.copy()
        pred[4, 4, 4] = 0  # class 2 disappears from the prediction
        report = evaluate_case(label_volume(pred), label_volume(gt))
        m2 = report.per_class[2]
        assert m2.dice == 0.0 and m2.hd_mm is None
        # dice macro averages over both GT classes; hd macro only over class 1
        assert report.macro["dice"] == pytest.approx(0.5)
        assert report.macro["hd_mm"] == 0.0

    def test_hd95_only_when_requested(self, phantom_case):
        _, labels = phantom_case
        plain = evaluate_case(labels, labels)
        with95 = evaluate_case(labels, labels, include_hd95=True)
        assert all(m.hd95_mm is None for m in plain.per_class.values())
        for c, m in with95.per_class.items():
            if m.gt_voxels and m.pred_voxels:
                assert m.hd95_mm is not None
                assert m.hd95_mm <= m.hd_mm + 1e-12

    def test_hd95_matches_bruteforce(self, rng):
        spacing = (0.8, 1.7, 1.0)
        checked = 0
        for _ in range(10):
            pred, gt = (label_volume(random_label_volume(rng, (9, 8, 10), classes=(1, 2)),
                                     spacing) for _ in range(2))
            report = evaluate_case(pred, gt, include_hd95=True)
            for c in (1, 2):
                m = report.per_class[c]
                if m.hd95_mm is None:
                    continue
                a = surface_voxels(pred, c) * np.asarray(spacing)
                b = surface_voxels(gt, c) * np.asarray(spacing)
                dmat = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
                want = max(np.percentile(dmat.min(axis=1), 95.0),
                           np.percentile(dmat.min(axis=0), 95.0))
                hd, assd = brute_surface_metrics(pred, gt, c, spacing)
                assert abs(m.hd95_mm - want) < 1e-9
                assert abs(m.hd_mm - hd) < 1e-9 and abs(m.assd_mm - assd) < 1e-9
                checked += 1
        assert checked >= 10

    def test_to_dict_layout(self):
        gt = np.zeros((6, 6, 6), dtype=np.uint8)
        gt[2:4, 2:4, 2:4] = 5
        report = evaluate_case(label_volume(gt), label_volume(gt), case_id="c0")
        doc = report.to_dict()
        assert doc["case_id"] == "c0"
        assert "myocardium" in doc["classes"]
        assert doc["classes"]["myocardium"]["dice"] == 1.0
        assert set(doc["macro"]) == {"dice", "jaccard", "hd_mm", "assd_mm"}

import numpy as np
import pytest

from cardioprior import (
    FOREGROUND_CLASSES,
    DegenerateConfiguration,
    FovSpec,
    InsufficientLandmarks,
    InvalidAtlas,
    Jitter,
    LandmarkSet,
    PhantomSpec,
    RigidTransform,
    apply_transform,
    build_atlas,
    class_centroids,
    generate,
    gpa_align,
    load_atlas,
    procrustes_fit,
    save_atlas,
)
from conftest import label_volume
from oracles import brute_hard_centroid


def rot_z(deg):
    a = np.deg2rad(deg)
    return np.array(
        [[np.cos(a), -np.sin(a), 0.0], [np.sin(a), np.cos(a), 0.0], [0.0, 0.0, 1.0]]
    )


def random_landmarks(rng):
    return LandmarkSet(rng.uniform(-20, 20, (7, 3)), np.ones(7, dtype=bool))


class TestRigidTransform:
    def test_identity(self):
        T = RigidTransform.identity()
        pts = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 4.0]])
        assert (T.apply(pts) == pts).all()

    def test_inverse_apply_round_trip(self, rng):
        T = RigidTransform(rot_z(37.0), np.array([1.0, -2.0, 5.0]), 1.3)
        pts = rng.uniform(-10, 10, (5, 3))
        assert np.abs(T.inverse_apply(T.apply(pts)) - pts).max() < 1e-12

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


class TestClassCentroids:
    def test_one_voxel_per_class(self):
        lab = np.zeros((9, 9, 9), dtype=np.uint8)
        spots = {c: (c, 8 - c, (2 * c) % 9) for c in FOREGROUND_CLASSES}
        for c, ix in spots.items():
            lab[ix] = c
        v = label_volume(lab, (2.0, 1.0, 0.5), (-1.0, 0.0, 3.0))
        lm = class_centroids(v)
        assert lm.present_mask.all()
        for c, ix in spots.items():
            world = [v.offset[a] + v.spacing[a] * ix[a] for a in range(3)]
            assert lm.points[c - 1] == pytest.approx(world)

    def test_symmetric_cube_center(self):
        lab = np.zeros((9, 9, 9), dtype=np.uint8)
        lab[2:5, 2:5, 2:5] = 1
        lm = class_centroids(label_volume(lab))
        assert lm.points[0] == pytest.approx((3.0, 3.0, 3.0))

    def test_absent_class_flagged(self):
        lab = np.zeros((9, 9, 9), dtype=np.uint8)
        lab[1, 1, 1] = 2
        lm = class_centroids(label_volume(lab))
        assert lm.present_mask[1]
        assert not lm.present_mask[0]

    def test_matches_bruteforce_on_phantom(self, phantom_case):
        _, labels = phantom_case
        lm = class_centroids(labels)
        for c in (1, 5, 7):
            assert np.abs(lm.points[c - 1] - brute_hard_centroid(labels, c)).max() < 1e-12


class TestProcrustes:
    def test_self_fit_is_identity(self, rng):
        lm = random_landmarks(rng)
        T, residual = procrustes_fit(lm, lm)
        assert np.abs(T.rotation - np.eye(3)).max() < 1e-9
        assert np.abs(T.translation).max() < 1e-9
        assert T.scale == 1.0
        assert residual < 1e-18

    def test_recovers_rotation_and_shift(self, rng):
        src = random_landmarks(rng)
        R = rot_z(90.0)
        t = np.array([5.0, 0.0, 0.0])
        dst = LandmarkSet(src.points @ R.T + t, src.present_mask)
        T, residual = procrustes_fit(src, dst)
        assert np.abs(T.rotation - R).max() < 1e-9
        assert np.abs(T.translation - t).max() < 1e-9
        assert residual < 1e-15

    def test_recovers_scale(self, rng):
        src = random_landmarks(rng)
        dst = LandmarkSet(2.0 * src.points, src.present_mask)
        T, _ = procrustes_fit(src, dst, with_scale=True)
        assert T.scale == pytest.approx(2.0, abs=1e-9)
        assert np.abs(T.rotation - np.eye(3)).max() < 1e-9

    def test_too_few_common_landmarks(self, rng):
        mask = np.zeros(7, dtype=bool)
        mask[:2] = True
        lm = LandmarkSet(rng.uniform(-5, 5, (7, 3)), mask)
        with pytest.raises(InsufficientLandmarks):
            procrustes_fit(lm, lm)

    def test_collinear_source_rejected(self):
        pts = np.zeros((7, 3))
        pts[:, 0] = np.arange(7)
        lm = LandmarkSet(pts, np.ones(7, dtype=bool))
        with pytest.raises(DegenerateConfiguration):
            procrustes_fit(lm, lm)


class TestApplyTransform:
    def grid(self):
        return FovSpec((8, 8, 8), 1.0)

    def centered_labels(self, rng):
        fov = self.grid()
        lab = np.zeros(fov.grid_size, dtype=np.uint8)
        lab[2:6, 3:5, 2:7] = rng.integers(1, 8, size=(4, 2, 5)).astype(np.uint8)
        return label_volume(lab, fov.spacing, fov.origin_centered_offset())

    def test_identity_on_matching_grid(self, rng):
        v = self.centered_labels(rng)
        out = apply_transform(v, RigidTransform.identity(), self.grid(), "nearest")
        assert (out.data == v.data).all()

    def test_half_turn_is_involution(self, rng):
        v = self.centered_labels(rng)
        T = RigidTransform(rot_z(180.0), np.zeros(3))
        once = apply_transform(v, T, self.grid(), "nearest")
        twice = apply_transform(once, T, self.grid(), "nearest")
        assert (twice.data == v.data).all()

    def test_integer_translation_preserves_count(self, rng):
        v = self.centered_labels(rng)
        T = RigidTransform(np.eye(3), np.array([1.0, 0.0, -1.0]))
        out = apply_transform(v, T, self.grid(), "nearest")
        assert int((out.data != 0).sum()) == int((v.data != 0).sum())


class TestGpa:
    def jittered_sets(self, n):
        spec = PhantomSpec(jitter=Jitter(8.0, 3.0, (0.97, 1.03), 0.04))
        return [class_centroids(generate(spec, i)[1]) for i in range(n)]

    def test_objective_non_increasing(self):
        _, _, objective = gpa_align(self.jittered_sets(5), gpa_iters=4)
        assert len(objective) == 4
        for a, b in zip(objective, objective[1:]):
            assert b <= a + 1e-9

    def test_reference_has_all_classes(self):
        _, ref, _ = gpa_align(self.jittered_sets(3))
        assert ref.present_mask.all()

    def test_empty_input_rejected(self):
        with pytest.raises(InsufficientLandmarks):
            gpa_align([])


class TestAtlas:
    def test_single_case_is_indicator(self, phantom_case):
        _, labels = phantom_case
        fov = FovSpec((48, 48, 48), 2.0)
        atlas = build_atlas([labels], fov)
        assert atlas.case_count == 1
        uniq = np.unique(atlas.heatmaps)
        assert set(uniq.tolist()) <= {0.0, 1.0}
        atlas.validate()

    def test_two_rigid_cases_mostly_binary(self, phantom_case):
        _, labels = phantom_case
        fov = FovSpec((48, 48, 48), 2.0)
        moved = apply_transform(
            labels, RigidTransform(rot_z(9.0), np.array([3.0, -2.0, 1.0])), fov, "nearest"
        )
        atlas = build_atlas([labels, moved], fov)
        vals = atlas.heatmaps[1:]
        n_half = int((vals == 0.5).sum())
        n_full = int((vals == 1.0).sum())
        assert set(np.unique(vals).tolist()) <= {0.0, 0.5, 1.0}
        # disagreement is confined to the resampling boundary shell
        assert n_half < 0.5 * n_full
        atlas.validate()

    def test_class_sum_is_one(self, phantom_case):
        _, labels = phantom_case
        spec = PhantomSpec()
        vols = [labels] + [generate(spec, i)[1] for i in (1, 2)]
        atlas = build_atlas(vols, FovSpec((48, 48, 48), 2.0))
        sums = atlas.heatmaps.sum(axis=0)
        assert np.abs(sums - 1.0).max() < 1e-6
        assert atlas.heatmaps.min() >= 0.0 and atlas.heatmaps.max() <= 1.0

    def test_save_load_round_trip(self, phantom_case, tmp_path):
        _, labels = phantom_case
        spec = PhantomSpec()
        atlas = build_atlas(
            [labels, generate(spec, 1)[1]], FovSpec((48, 48, 48), 2.0), case_ids=["a", "b"]
        )
        save_atlas(atlas, tmp_path / "atlas")
        back = load_atlas(tmp_path / "atlas")
        assert back.case_count == atlas.case_count
        assert back.reference_grid == atlas.reference_grid
        assert back.heatmaps.tobytes() == atlas.heatmaps.tobytes()
        assert set(back.transforms) == {"a", "b"}
        for key, T in atlas.transforms.items():
            assert np.abs(back.transforms[key].rotation - T.rotation).max() < 1e-15
            assert np.abs(back.transforms[key].translation - T.translation).max() < 1e-15

    def test_foreign_class_roster_rejected(self, tmp_path):
        (tmp_path / "atlas.json").write_text(
            '{"schema": "heatmap-atlas/1", "classes": ["background", "LV"]}')
        with pytest.raises(InvalidAtlas, match="class roster"):
            load_atlas(tmp_path)

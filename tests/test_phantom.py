import hashlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cardioprior import (
    BASE_INTENSITY,
    FOREGROUND_CLASSES,
    DegenerateSpec,
    FovSpec,
    InvalidLabelValue,
    InvalidParameter,
    Jitter,
    PhantomSpec,
    UnknownMode,
    canonical_volumes,
    degrade,
    generate,
    overlap,
)
from cardioprior.phantom import _ASSIGNMENT
from conftest import label_volume
from oracles import full_grid_phantom, phantom_pose

#: The widest jitter that Jitter admits; _check_fit admits it on a 160 mm field of view.
MAX_JITTER = Jitter(45.0, 8.0, (0.8, 1.2), 0.49)


def zero_jitter_spec(noise=0.0):
    return PhantomSpec(jitter=Jitter.none(), noise_sigma=noise)


class TestJitterValidation:
    def test_rotation_cap(self):
        with pytest.raises(ValueError):
            Jitter(pose_rotation_max_deg=50.0)

    def test_axis_variation_cap(self):
        with pytest.raises(ValueError):
            Jitter(axis_variation=0.5)

    def test_scale_interval(self):
        with pytest.raises(ValueError):
            Jitter(scale_range=(1.05, 0.95))

    def test_none_is_valid(self):
        j = Jitter.none()
        assert j.pose_rotation_max_deg == 0.0
        assert j.scale_range == (1.0, 1.0)


class TestGenerate:
    def test_zero_jitter_labels_identical_across_cases(self):
        spec = zero_jitter_spec(noise=12.0)
        _, lab0 = generate(spec, 0)
        _, lab5 = generate(spec, 5)
        assert (lab0.data == lab5.data).all()

    def test_bit_identical_across_runs_and_threads(self):
        spec = PhantomSpec(seed=3)
        img_a, lab_a = generate(spec, 7)
        img_b, lab_b = generate(spec, 7)
        assert img_a.data.tobytes() == img_b.data.tobytes()
        assert lab_a.data.tobytes() == lab_b.data.tobytes()
        with ThreadPoolExecutor(max_workers=4) as ex:
            results = list(ex.map(lambda k: generate(spec, k), [7, 7, 7, 7]))
        for img_c, lab_c in results:
            assert img_c.data.tobytes() == img_a.data.tobytes()
            assert lab_c.data.tobytes() == lab_a.data.tobytes()

    def test_different_cases_differ(self):
        spec = PhantomSpec()
        _, lab0 = generate(spec, 0)
        _, lab1 = generate(spec, 1)
        assert (lab0.data != lab1.data).any()

    def test_all_classes_populated(self, phantom_case):
        _, labels = phantom_case
        for c in FOREGROUND_CLASSES:
            assert int((labels.data == c).sum()) >= 30

    def test_grid_metadata(self, phantom_case):
        image, labels = phantom_case
        assert image.dims == (48, 48, 48)
        assert image.spacing == (2.0, 2.0, 2.0)
        assert labels.offset == (-47.0, -47.0, -47.0)
        assert image.data.dtype == np.float32
        assert labels.data.dtype == np.uint8

    def test_noiseless_image_is_base_intensity_lookup(self):
        image, labels = generate(zero_jitter_spec(noise=0.0), 0)
        expected = np.asarray(BASE_INTENSITY, dtype=np.float32)[labels.data]
        assert (image.data == expected).all()

    def test_volumes_match_closed_form_within_2pct(self):
        _, labels = generate(zero_jitter_spec(), 0)
        vv = labels.voxel_volume
        for c, analytic in canonical_volumes().items():
            measured = float((labels.data == c).sum()) * vv
            assert abs(measured - analytic) / analytic < 0.02

    def test_grid_too_small_rejected(self):
        with pytest.raises(DegenerateSpec):
            generate(PhantomSpec(grid=FovSpec((16, 16, 16), 2.0)), 0)


class TestBoxesEqualWholeGrid:
    """``generate`` tests each compartment on its bounding box only; the
    labels and the image must equal a test of every voxel."""

    SPECS = {
        "anisotropic": (PhantomSpec(grid=FovSpec((50, 56, 64), 2.0), seed=7), range(4)),
        "max_jitter": (PhantomSpec(grid=FovSpec((64, 64, 64), 2.5), seed=8,
                                   jitter=MAX_JITTER), range(4)),
        "max_jitter_coarse": (PhantomSpec(grid=FovSpec((8, 8, 8), 20.0), jitter=MAX_JITTER),
                              range(40)),
        "zero_jitter": (PhantomSpec(jitter=Jitter.none()), range(2)),
        "zero_jitter_coarse": (PhantomSpec(grid=FovSpec((8, 8, 8), 9.7), jitter=Jitter.none()),
                               range(2)),
    }

    @pytest.mark.parametrize("name", SPECS)
    def test_equals_full_grid_oracle(self, name):
        spec, cases = self.SPECS[name]
        for k in cases:
            image, labels = generate(spec, k)
            ref_image, ref_labels = full_grid_phantom(spec, k)
            assert (labels.data == ref_labels).all()
            assert (image.data == ref_image).all()

    @staticmethod
    def margin_reaches_a_face(spec, k):
        """Whether some compartment's box, one voxel wider, runs off the grid."""
        R, t, s, axis_factors, _ = phantom_pose(spec, k)
        sp = spec.grid.spacing_mm
        first = np.asarray(spec.grid.origin_centered_offset())
        last = first + sp * (np.asarray(spec.grid.grid_size) - 1)
        for row, (_, shape) in enumerate(_ASSIGNMENT):
            lo, hi = shape.world_bounds(R, t, s, axis_factors[row])
            if (lo - sp < first).any() or (hi + sp > last).any():
                return True
        return False

    @pytest.mark.parametrize("name", ["max_jitter_coarse", "zero_jitter_coarse"])
    def test_coarse_grids_clip_the_margin(self, name):
        spec, cases = self.SPECS[name]
        assert any(self.margin_reaches_a_face(spec, k) for k in cases)


class TestTypedIntegers:
    @pytest.mark.parametrize("case", [-1, 2**64, 1.5, True, "1", None])
    def test_bad_case_index(self, case):
        with pytest.raises(InvalidParameter):
            generate(PhantomSpec(grid=FovSpec((12, 12, 12), 8.0)), case)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, "1"])
    def test_bad_seed(self, seed):
        with pytest.raises(InvalidParameter):
            PhantomSpec(seed=seed)

    def test_numpy_integers_pass(self):
        spec = PhantomSpec(grid=FovSpec((12, 12, 12), 8.0), seed=np.uint64(2**64 - 1))
        _, lab = generate(spec, np.int64(1))
        _, ref = generate(PhantomSpec(grid=FovSpec((12, 12, 12), 8.0), seed=2**64 - 1), 1)
        assert lab.data.tobytes() == ref.data.tobytes()
        assert type(spec.seed) is int


class TestDegrade:
    def solid_cube(self):
        lab = np.zeros((12, 12, 12), dtype=np.uint8)
        lab[3:9, 3:9, 3:9] = 1
        return label_volume(lab)

    def test_zero_magnitude_is_identity(self, phantom_case):
        _, labels = phantom_case
        for mode, mag in (("erode", 0), ("dilate", 0), ("swap_boundary", 0.0)):
            out = degrade(labels, mode, mag)
            assert (out.data == labels.data).all()

    def test_erode_shrinks_solid_cube(self):
        cube = self.solid_cube()
        out = degrade(cube, "erode", 1)
        before = int((cube.data == 1).sum())
        after = int((out.data == 1).sum())
        assert after < before
        assert after == 4 ** 3  # 6-cube loses its one-voxel shell

    def test_dilate_grows(self):
        cube = self.solid_cube()
        out = degrade(cube, "dilate", 1)
        assert int((out.data == 1).sum()) > int((cube.data == 1).sum())

    def test_drop_class_zeroes_one_dice(self, phantom_case):
        _, labels = phantom_case
        out = degrade(labels, "drop_class", 3)
        assert overlap(out, labels, 3) == (0.0, 0.0)
        for c in (1, 2, 4, 5, 6, 7):
            assert overlap(out, labels, c) == (1.0, 1.0)

    def test_drop_class_validates_id(self, phantom_case):
        _, labels = phantom_case
        with pytest.raises(InvalidLabelValue):
            degrade(labels, "drop_class", 0)

    def test_swap_boundary_is_seeded(self, phantom_case):
        _, labels = phantom_case
        a = degrade(labels, "swap_boundary", 0.2, seed=5)
        b = degrade(labels, "swap_boundary", 0.2, seed=5)
        c = degrade(labels, "swap_boundary", 0.2, seed=6)
        assert (a.data == b.data).all()
        assert (a.data != c.data).any()
        assert (a.data != labels.data).any()

    def test_unknown_mode(self, phantom_case):
        _, labels = phantom_case
        with pytest.raises(UnknownMode):
            degrade(labels, "blur", 1)

    @pytest.mark.parametrize("mode, magnitude", [
        ("erode", 1.5), ("erode", -1), ("erode", None), ("dilate", "x"), ("dilate", True),
        ("dilate", 1.0), ("drop_class", 2.5), ("drop_class", "3"), ("swap_boundary", "0.1"),
        ("swap_boundary", True), ("swap_boundary", None), ("swap_boundary", 2.0),
        ("swap_boundary", -0.1), ("swap_boundary", float("nan")),
    ])
    def test_rejects_bad_magnitude(self, mode, magnitude):
        # erode 1.5 used to erode once, erode -1 did nothing, drop_class 2.5
        # dropped class 2, and swap_boundary took "0.1" and True as numbers
        with pytest.raises(InvalidParameter):
            degrade(self.solid_cube(), mode, magnitude)

    def test_valid_magnitudes_keep_their_bytes(self):
        labels = generate(PhantomSpec(grid=FovSpec((24, 24, 24), 4.0), seed=0), 0)[1]
        out = degrade(labels, "swap_boundary", 0.15, seed=3)
        assert hashlib.sha256(out.data.tobytes()).hexdigest() == (
            "6365b3d942ad18e3e9bdf46c395c0b0b97a22e64a1d8bc1c8a9b5ea4a455b9bc")
        assert degrade(labels, "swap_boundary", np.float32(0.15), seed=3).data.tobytes() \
            == degrade(labels, "swap_boundary", float(np.float32(0.15)), seed=3).data.tobytes()
        for mode, magnitude in (("erode", 2), ("dilate", 1), ("drop_class", 3)):
            assert degrade(labels, mode, np.int64(magnitude)).data.tobytes() \
                == degrade(labels, mode, magnitude).data.tobytes()

import numpy as np
import pytest

from cardioprior import (
    EmptyForeground,
    FovSpec,
    InvalidParameter,
    InvalidSpacing,
    Volume3,
    embed_fov,
    foreground_centroid,
    resample,
    sample_at_world,
)
from conftest import label_volume
from oracles import brute_hard_centroid


def float_volume(data, spacing=(1.0, 1.0, 1.0), offset=(0.0, 0.0, 0.0)):
    return Volume3(np.asarray(data, dtype=np.float32), spacing, offset)


class TestFovSpec:
    def test_centered_offset(self):
        fov = FovSpec((9, 9, 9), 2.0)
        assert fov.origin_centered_offset() == (-8.0, -8.0, -8.0)
        assert fov.spacing == (2.0, 2.0, 2.0)

    def test_rejects_bad_spacing(self):
        with pytest.raises(InvalidSpacing):
            FovSpec((16, 16, 16), 0.0)

    @pytest.mark.parametrize("spacing", [float("inf"), float("nan")])
    def test_rejects_nonfinite_spacing(self, spacing):
        with pytest.raises(InvalidSpacing):
            FovSpec((16, 16, 16), spacing)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            FovSpec((4, 16, 16), 1.0)

    @pytest.mark.parametrize("size", [(16.9, 16, 16), (16, 16, "16"), (16, True, 16),
                                      (16.0, 16, 16)])
    def test_rejects_non_integer_size(self, size):
        with pytest.raises(InvalidParameter):
            FovSpec(size, 6.0)

    @pytest.mark.parametrize("size", [16, 16.0, None])
    def test_rejects_size_that_is_not_a_sequence(self, size):
        with pytest.raises(InvalidParameter):  # used to be a raw TypeError
            FovSpec(size, 6.0)

    @pytest.mark.parametrize("spacing", ["2", None, [2.0], True])
    def test_rejects_spacing_that_is_not_a_number(self, spacing):
        with pytest.raises(InvalidSpacing):  # "2", None, [2.0]: a raw TypeError; True: 1 mm
            FovSpec((16, 16, 16), spacing)

    def test_numpy_integer_size(self):
        fov = FovSpec(tuple(np.arange(16, 19)), 6.0)
        assert fov.grid_size == (16, 17, 18)
        assert all(type(n) is int for n in fov.grid_size)


class TestSampleAtWorld:
    def test_trilinear_midpoint(self):
        v = float_volume(np.array([[[0.0]], [[1.0]]]))
        val = sample_at_world(v, np.array([0.5, 0.0, 0.0]).reshape(3, 1), "trilinear")
        assert float(val[0]) == pytest.approx(0.5, abs=1e-12)

    def test_nearest_rounds_half_up(self):
        v = float_volume(np.array([[[0.0]], [[1.0]]]))
        val = sample_at_world(v, np.array([0.5, 0.0, 0.0]).reshape(3, 1), "nearest")
        assert float(val[0]) == 1.0

    def test_outside_grid_is_zero(self):
        v = float_volume(np.ones((2, 2, 2)))
        val = sample_at_world(v, np.array([-5.0, 0.0, 0.0]).reshape(3, 1), "trilinear")
        assert float(val[0]) == 0.0

    def test_unknown_mode(self):
        v = float_volume(np.ones((2, 2, 2)))
        with pytest.raises(ValueError):
            sample_at_world(v, np.zeros((3, 1)), "cubic")


class TestResample:
    def test_identity_when_grids_match(self, rng):
        v = float_volume(rng.standard_normal((6, 5, 4)), (1.0, 1.0, 1.0), (2.0, -1.0, 0.0))
        for mode in ("nearest", "trilinear"):
            out = resample(v, (1.0, 1.0, 1.0), mode)
            assert out.dims == v.dims
            assert (out.data == v.data).all()
            assert out.offset == pytest.approx(v.offset)

    def test_nearest_cannot_invent_labels(self, rng):
        lab = rng.integers(0, 4, size=(8, 8, 8)).astype(np.uint8)
        v = label_volume(lab)
        out = resample(v, (1.3, 0.7, 1.9), "nearest")
        assert out.data.dtype == np.uint8
        assert set(np.unique(out.data)) <= set(np.unique(lab))

    def test_rejects_bad_spacing(self):
        v = float_volume(np.zeros((4, 4, 4)))
        with pytest.raises(InvalidSpacing):
            resample(v, (1.0, -1.0, 1.0), "nearest")


class TestForegroundCentroid:
    def test_single_voxel(self):
        lab = np.zeros((3, 3, 3), dtype=np.uint8)
        lab[1, 1, 1] = 5
        assert foreground_centroid(label_volume(lab)) == pytest.approx((1.0, 1.0, 1.0))

    def test_two_voxel_symmetry(self):
        lab = np.zeros((4, 3, 3), dtype=np.uint8)
        lab[0, 1, 1] = 1
        lab[2, 1, 1] = 1
        c = foreground_centroid(label_volume(lab))
        assert c[0] == pytest.approx(1.0)

    def test_matches_bruteforce(self, rng):
        lab = np.zeros((7, 6, 5), dtype=np.uint8)
        mask = rng.random((7, 6, 5)) < 0.3
        lab[mask] = 2
        lab[0, 0, 0] = 2  # never empty
        v = label_volume(lab, (0.9, 1.4, 2.2), (-3.0, 1.0, 0.5))
        c = foreground_centroid(v)
        ref = brute_hard_centroid(v, 2)
        assert np.abs(c - ref).max() < 1e-12

    def test_empty_foreground(self):
        with pytest.raises(EmptyForeground):
            foreground_centroid(label_volume(np.zeros((3, 3, 3))))


class TestEmbedFov:
    def test_identity_embedding(self, rng):
        fov = FovSpec((8, 8, 8), 1.0)
        v = float_volume(rng.standard_normal((8, 8, 8)), fov.spacing, fov.origin_centered_offset())
        out = embed_fov(v, (0.0, 0.0, 0.0), fov, "nearest")
        assert (out.data == v.data).all()
        assert out.offset == v.offset

    def test_centering_contract(self):
        lab = np.zeros((12, 12, 12), dtype=np.uint8)
        lab[3, 7, 5] = 4
        v = label_volume(lab)
        fov = FovSpec((9, 9, 9), 1.0)
        out = embed_fov(v, (3.0, 7.0, 5.0), fov, "nearest")
        assert out.data[4, 4, 4] == 4
        assert int((out.data != 0).sum()) == 1

    def test_count_preserved_inside_fov(self):
        lab = np.zeros((12, 12, 12), dtype=np.uint8)
        lab[4:8, 4:8, 4:8] = 3
        v = label_volume(lab)
        out = embed_fov(v, (5.0, 5.0, 5.0), FovSpec((9, 9, 9), 1.0), "nearest")
        assert int((out.data == 3).sum()) == 64

import numpy as np
import pytest

from cardioprior import (
    FOREGROUND_CLASSES,
    N_CLASSES,
    ProbVolume,
    RigidTransform,
    ShapeStats,
    VanishingMass,
    aggregate,
    case_descriptor,
    load_stats,
    one_hot,
    relations,
    save_stats,
    soft_centroid,
    soft_mass,
    soft_second_moment,
    soft_volume,
)
from cardioprior.stats import grid_basis
from conftest import label_volume
from oracles import brute_soft_centroid, brute_soft_second_moment, soft_blob_case


def soft_map(rng, dims=(5, 4, 3), spacing=(1.0, 1.0, 1.0), offset=(0.0, 0.0, 0.0)):
    """Random strictly positive probability volume."""
    raw = rng.random((N_CLASSES,) + dims) + 0.05
    return ProbVolume(raw / raw.sum(axis=0), spacing, offset)


class TestSoftVolume:
    def test_counts_hard_voxels(self):
        lab = np.zeros((4, 4, 4), dtype=np.uint8)
        lab.reshape(-1)[:10] = 2
        p = one_hot(label_volume(lab))
        assert soft_volume(p, 2) == pytest.approx(10.0)

    def test_all_background_gives_zero(self):
        p = one_hot(label_volume(np.zeros((3, 3, 3))))
        for c in FOREGROUND_CLASSES:
            assert soft_volume(p, c) == 0.0

    def test_half_probability_closed_form(self):
        data = np.zeros((N_CLASSES, 4, 4, 4))
        data[0] = 0.5
        data[3] = 0.5
        p = ProbVolume(data, (2.0, 2.0, 2.0))
        assert soft_volume(p, 3) == pytest.approx(0.5 * 64 * 8.0)
        assert soft_mass(p, 3) == pytest.approx(32.0)


class TestSoftCentroid:
    def test_hard_single_voxel(self):
        lab = np.zeros((4, 4, 4), dtype=np.uint8)
        lab[2, 1, 3] = 6
        p = one_hot(label_volume(lab, (1.5, 1.0, 2.0), (0.5, 0.0, -1.0)))
        assert soft_centroid(p, 6) == pytest.approx((3.5, 1.0, 5.0))

    def test_two_point_symmetry(self):
        data = np.zeros((N_CLASSES, 3, 1, 1))
        data[1, 0, 0, 0] = 0.3
        data[1, 2, 0, 0] = 0.3
        data[0] = 1.0 - data[1:].sum(axis=0)
        p = ProbVolume(data, (1.0, 1.0, 1.0))
        assert soft_centroid(p, 1)[0] == pytest.approx(1.0)

    def test_matches_bruteforce(self, rng):
        p = soft_map(rng, spacing=(0.8, 1.3, 2.1), offset=(-2.0, 4.0, 0.0))
        for c in (1, 4, 7):
            assert np.abs(soft_centroid(p, c) - brute_soft_centroid(p, c)).max() < 1e-12

    def test_vanishing_mass(self):
        p = one_hot(label_volume(np.zeros((3, 3, 3))))
        with pytest.raises(VanishingMass):
            soft_centroid(p, 4)


class TestSoftSecondMoment:
    def test_single_voxel_is_zero_matrix(self):
        lab = np.zeros((4, 4, 4), dtype=np.uint8)
        lab[1, 2, 3] = 1
        p = one_hot(label_volume(lab))
        assert np.abs(soft_second_moment(p, 1)).max() == 0.0

    def test_two_point_closed_form(self):
        d = 3.0
        data = np.zeros((N_CLASSES, 4, 1, 1))
        data[2, 0, 0, 0] = 0.4
        data[2, 3, 0, 0] = 0.4
        data[0] = 1.0 - data[1:].sum(axis=0)
        p = ProbVolume(data, (1.0, 1.0, 1.0))
        M = soft_second_moment(p, 2)
        expected = np.zeros((3, 3))
        expected[0, 0] = d * d / 4.0
        assert np.abs(M - expected).max() < 1e-12

    def test_matches_bruteforce_and_is_psd(self, rng):
        p = soft_map(rng, spacing=(1.1, 0.9, 1.7), offset=(3.0, -1.0, 2.0))
        for c in (2, 5):
            M = soft_second_moment(p, c)
            assert np.abs(M - M.T).max() == 0.0
            assert np.linalg.eigvalsh(M).min() > -1e-10
            assert np.abs(M - brute_soft_second_moment(p, c)).max() < 1e-12


class TestGridBasis:
    def test_far_offset_matches_bruteforce(self):
        # the oracle works in world coordinates: near 1e4 mm each carries
        # up to 1 ulp = 1.8e-12 mm, which bounds how well it can agree
        p = soft_blob_case(4, (8, 8, 8), (1.1, 1.1, 1.4), (1e4, -1e4, 1e4), corner_class=4)
        for c in FOREGROUND_CLASSES:
            M = soft_second_moment(p, c)
            assert np.abs(M - M.T).max() == 0.0
            assert np.abs(M - brute_soft_second_moment(p, c)).max() < 1e-11

    def test_basis_is_read_only(self):
        basis = grid_basis((5, 4, 3), (1.0, 2.0, 0.5))
        assert basis.shape == (10, 60) and not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[1, 0] = 0.0

    def test_alternating_grids_match_fresh_computation(self):
        cases = [soft_blob_case(s, (n, n, n), (1.2, 0.9, 1.1), (3.0, -2.0, 1.0))
                 for s, n in ((5, 5), (6, 8))]

        def moments(p):
            d = case_descriptor(p)
            return d.soft_centroid.tobytes(), d.second_moment.tobytes(), d.pair_distance

        grid_basis.cache_clear()
        fresh = [moments(p) for p in cases]
        for _ in range(3):
            for p, want in zip(cases, fresh):
                assert moments(p) == want
                grid_basis.cache_clear()
                assert moments(p) == want


class TestRelations:
    def constellation(self):
        pts = np.zeros((7, 3))
        pts[0] = (0.0, 0.0, 0.0)
        pts[1] = (1.0, 0.0, 0.0)
        pts[2] = (0.0, 1.0, 0.0)
        present = np.zeros(7, dtype=bool)
        present[:3] = True
        return pts, present

    def test_hand_geometry(self):
        pts, present = self.constellation()
        dist, cos = relations(pts, present)
        assert dist[(1, 2)] == pytest.approx(1.0)
        assert dist[(1, 3)] == pytest.approx(1.0)
        assert dist[(2, 3)] == pytest.approx(np.sqrt(2.0))
        assert cos[(2, 1, 3)] == pytest.approx(0.0, abs=1e-15)
        assert cos[(1, 2, 3)] == pytest.approx(1.0 / np.sqrt(2.0))
        assert cos[(1, 3, 2)] == pytest.approx(1.0 / np.sqrt(2.0))

    def test_collinear_gives_unit_cosines(self):
        # classes 1, 2, 3 on a line: vertex between its neighbors sees -1,
        # the endpoints see +1
        pts = np.zeros((7, 3))
        pts[1] = (1.0, 0.0, 0.0)
        pts[2] = (2.0, 0.0, 0.0)
        present = np.zeros(7, dtype=bool)
        present[:3] = True
        _, cos = relations(pts, present)
        assert cos[(1, 2, 3)] == pytest.approx(-1.0)
        assert cos[(2, 1, 3)] == pytest.approx(1.0)
        assert cos[(1, 3, 2)] == pytest.approx(1.0)

    def test_coincident_points_skipped(self):
        pts, present = self.constellation()
        pts[1] = pts[0]
        dist, cos = relations(pts, present)
        assert (1, 2) not in dist
        assert (2, 1, 3) not in cos

    def test_segment_below_floor_skipped(self):
        # the same 1e-6 mm floor as relation_loss: a 5e-7 mm pair is no relation
        pts, present = self.constellation()
        pts[1] = pts[0] + (5e-7, 0.0, 0.0)
        dist, cos = relations(pts, present)
        assert (1, 2) not in dist
        assert (2, 1, 3) not in cos and (1, 2, 3) not in cos
        assert (1, 3) in dist

    def test_rigid_invariance(self, rng):
        pts = rng.uniform(-15, 15, (7, 3))
        present = np.ones(7, dtype=bool)
        d0, c0 = relations(pts, present)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        a = 0.7
        K = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
        R = np.eye(3) + np.sin(a) * K + (1 - np.cos(a)) * (K @ K)
        T = RigidTransform(R, rng.uniform(-5, 5, 3))
        d1, c1 = relations(T.apply(pts), present)
        for k in d0:
            assert abs(d1[k] - d0[k]) < 1e-9
        for k in c0:
            assert abs(c1[k] - c0[k]) < 1e-9


class TestCaseDescriptor:
    def test_absent_classes_are_nan(self):
        lab = np.zeros((4, 4, 4), dtype=np.uint8)
        lab[0, 0, 0] = 1
        lab[3, 3, 3] = 2
        desc = case_descriptor(one_hot(label_volume(lab)))
        assert desc.present[1] and desc.present[2]
        assert not desc.present[5]
        assert np.isnan(desc.soft_volume[5])
        assert np.isnan(desc.soft_centroid[5]).all()
        assert (1, 2) in desc.pair_distance

    def test_descriptor_matches_elementwise_functions(self, phantom_case):
        _, labels = phantom_case
        p = one_hot(labels)
        desc = case_descriptor(p)
        for c in (1, 6):
            assert desc.soft_volume[c] == pytest.approx(soft_volume(p, c))
            assert desc.soft_centroid[c] == pytest.approx(soft_centroid(p, c))
            assert np.abs(desc.second_moment[c] - soft_second_moment(p, c)).max() < 1e-12


class TestAggregate:
    def two_volume_cases(self, n1, n2):
        out = []
        for n in (n1, n2):
            lab = np.zeros((8, 8, 8), dtype=np.uint8)
            lab.reshape(-1)[:n] = 1
            out.append(case_descriptor(one_hot(label_volume(lab))))
        return out

    def test_single_case_means_with_zero_std(self, phantom_case):
        _, labels = phantom_case
        desc = case_descriptor(one_hot(labels))
        stats = aggregate([desc])
        assert stats.n_cases == 1
        for c in FOREGROUND_CLASSES:
            assert stats.class_n[c] == 1
            assert stats.volume_mean[c] == pytest.approx(desc.soft_volume[c])
            assert stats.volume_std[c] == 0.0
            assert stats.centroid_mean[c] == pytest.approx(desc.soft_centroid[c])
        for k, (mean, std, n) in stats.pair_stats.items():
            assert mean == pytest.approx(desc.pair_distance[k])
            assert std == 0.0 and n == 1

    def test_population_std_hand_arithmetic(self):
        stats = aggregate(self.two_volume_cases(90, 110))
        assert stats.volume_mean[1] == pytest.approx(100.0)
        assert stats.volume_std[1] == pytest.approx(10.0)
        assert stats.class_n[1] == 2

    def test_absent_class_marked_absent(self):
        stats = aggregate(self.two_volume_cases(90, 110))
        assert stats.class_n[7] == 0
        assert np.isnan(stats.volume_mean[7])
        assert not stats.class_usable(7)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestStatsIo:
    def test_round_trip(self, tmp_path, phantom_case):
        from cardioprior import PhantomSpec, generate

        _, labels = phantom_case
        descs = [case_descriptor(one_hot(labels))]
        descs += [case_descriptor(one_hot(generate(PhantomSpec(), i)[1])) for i in (1, 2)]
        stats = aggregate(descs)
        save_stats(stats, tmp_path / "stats.json")
        back = load_stats(tmp_path / "stats.json")
        assert back.n_cases == stats.n_cases
        np.testing.assert_array_equal(back.volume_mean, stats.volume_mean)
        np.testing.assert_array_equal(back.volume_std, stats.volume_std)
        np.testing.assert_array_equal(back.centroid_mean, stats.centroid_mean)
        np.testing.assert_array_equal(back.second_moment_mean, stats.second_moment_mean)
        np.testing.assert_array_equal(back.class_n, stats.class_n)
        assert back.pair_stats == stats.pair_stats
        assert back.triple_stats == stats.triple_stats

    def test_isolated_stats_object_is_constructible(self):
        # losses only need the arrays; keys of the relation maps are class-id tuples
        stats = ShapeStats(
            volume_mean=np.full(8, np.nan),
            volume_std=np.full(8, np.nan),
            centroid_mean=np.full((8, 3), np.nan),
            second_moment_mean=np.full((8, 3, 3), np.nan),
            class_n=np.zeros(8, dtype=np.int64),
            pair_stats={},
            triple_stats={},
            n_cases=0,
        )
        assert not stats.class_usable(1)

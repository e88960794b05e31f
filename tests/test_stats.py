import copy
import dataclasses
import functools
import hashlib
import json
import operator
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cardioprior import (
    FOREGROUND_CLASSES,
    N_CLASSES,
    FovSpec,
    InvalidStats,
    LossConfig,
    PhantomSpec,
    ProbVolume,
    RigidTransform,
    ShapeStats,
    VanishingMass,
    aggregate,
    case_descriptor,
    generate,
    load_stats,
    one_hot,
    relation_loss,
    relations,
    save_stats,
    soft_centroid,
    soft_mass,
    soft_second_moment,
    soft_volume,
)
from cardioprior._version import __version__
from cardioprior.losses import TILE_VOXELS
from cardioprior.stats import (
    MASS_EPSILON, MIN_SEGMENT_MM, PAIRS, TRIPLES, SoftMoments, grid_basis, relation_geometry,
)
from conftest import label_volume
from oracles import (
    brute_soft_centroid, brute_soft_second_moment, dense_relation_terms,
    fancy_index_relation_geometry, per_row_soft_moments, soft_blob_case,
)


PAIR_ROW = {tuple(k): t for t, k in enumerate(PAIRS.tolist())}
TRIPLE_ROW = {tuple(k): t for t, k in enumerate(TRIPLES.tolist())}


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
            return d.soft_centroid.tobytes(), d.second_moment.tobytes(), d.pair_distance.tobytes()

        grid_basis.cache_clear()
        fresh = [moments(p) for p in cases]
        for _ in range(3):
            for p, want in zip(cases, fresh):
                assert moments(p) == want
                grid_basis.cache_clear()
                assert moments(p) == want


class TestSoftMoments:
    def test_matches_per_row_reference_bit_for_bit(self):
        # each instance has an absent class, one just under the mass floor
        # and, on every other instance, an offset near 1e4 mm
        rng = np.random.default_rng(11)
        for trial in range(200):
            dims = tuple(int(n) for n in rng.integers(1, 7, 3))
            data = rng.random((N_CLASSES,) + dims) ** 3
            data /= data.sum(axis=0)
            absent, faint = rng.permutation(N_CLASSES)[:2]
            data[absent] = 0.0
            data[faint] *= MASS_EPSILON * (1.0 - 1e-9) / data[faint].sum()
            offset = tuple(rng.uniform(-1e4, 1e4, 3)) if trial % 2 else (0.0, 0.0, 0.0)
            p = ProbVolume(data, tuple(rng.uniform(0.3, 3.0, 3)), offset)
            classes = np.flatnonzero(rng.random(N_CLASSES) < 0.8).tolist()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                mom = SoftMoments(p, classes)
            mass, present, mu, centroid, M = per_row_soft_moments(p, classes)
            assert not present[absent] and not present[faint]
            assert np.array_equal(mom.mass, mass)
            assert np.array_equal(mom.present, present)
            for got, want in ((mom.mu, mu), (mom.centroid, centroid), (mom.second_moment, M)):
                assert np.array_equal(got, want, equal_nan=True)
                # the layout too: a sum over a strided array adds in another order
                assert got.flags.c_contiguous
                rows = np.isnan(got.reshape(N_CLASSES, -1))
                assert np.array_equal(rows.all(axis=1), ~present)
                assert np.array_equal(rows.any(axis=1), ~present)

    def test_centroid_rows_alone(self):
        # the relation term reads only the centroids, from the product with
        # the basis rows 1, u, v, w, summed over voxel tiles: on each tile
        # the bits of the ten-row product's first four columns, and then
        # every moment but the second with the ten-row bits
        rng = np.random.default_rng(12)
        for dims, spacing in (((5, 5, 5), (1.0, 1.0, 1.0)), ((23, 19, 29), (0.7, 1.1, 2.0)),
                              ((48, 48, 48), (2.0, 2.0, 2.0))):
            data = rng.random((N_CLASSES,) + dims)
            data[3] = 0.0
            p = ProbVolume(data / data.sum(axis=0), spacing, (10.0, -5.0, 2.5))
            P = p.data.reshape(N_CLASSES, -1)
            basis = grid_basis(dims, spacing)
            for s in range(0, P.shape[1], TILE_VOXELS):
                tile = slice(s, s + TILE_VOXELS)
                raw = P[:, tile] @ basis[:4, tile].T
                ten = np.ascontiguousarray((P[:, tile] @ basis[:, tile].T)[:, :4])
                assert raw.tobytes() == ten.tobytes(), (dims, s)
            raw = P @ basis.T
            classes = np.arange(N_CLASSES) > 0
            four = SoftMoments(p, classes, raw=np.ascontiguousarray(raw[:, :4]))
            ten = SoftMoments(p, classes, raw=raw)
            assert four.second_moment is None
            for name in ("mass", "present", "mu", "centroid"):
                assert np.array_equal(getattr(four, name), getattr(ten, name), equal_nan=True)


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
        assert dist[PAIR_ROW[(1, 2)]] == pytest.approx(1.0)
        assert dist[PAIR_ROW[(1, 3)]] == pytest.approx(1.0)
        assert dist[PAIR_ROW[(2, 3)]] == pytest.approx(np.sqrt(2.0))
        assert cos[TRIPLE_ROW[(2, 1, 3)]] == pytest.approx(0.0, abs=1e-15)
        assert cos[TRIPLE_ROW[(1, 2, 3)]] == pytest.approx(1.0 / np.sqrt(2.0))
        assert cos[TRIPLE_ROW[(1, 3, 2)]] == pytest.approx(1.0 / np.sqrt(2.0))

    def test_collinear_gives_unit_cosines(self):
        # classes 1, 2, 3 on a line: vertex between its neighbors sees -1,
        # the endpoints see +1
        pts = np.zeros((7, 3))
        pts[1] = (1.0, 0.0, 0.0)
        pts[2] = (2.0, 0.0, 0.0)
        present = np.zeros(7, dtype=bool)
        present[:3] = True
        _, cos = relations(pts, present)
        assert cos[TRIPLE_ROW[(1, 2, 3)]] == pytest.approx(-1.0)
        assert cos[TRIPLE_ROW[(2, 1, 3)]] == pytest.approx(1.0)
        assert cos[TRIPLE_ROW[(1, 3, 2)]] == pytest.approx(1.0)

    def test_coincident_points_skipped(self):
        pts, present = self.constellation()
        pts[1] = pts[0]
        dist, cos = relations(pts, present)
        assert np.isnan(dist[PAIR_ROW[(1, 2)]])
        assert np.isnan(cos[TRIPLE_ROW[(2, 1, 3)]])

    def test_segment_below_floor_skipped(self):
        # the same 1e-6 mm floor as relation_loss: a 5e-7 mm pair is no relation
        pts, present = self.constellation()
        pts[1] = pts[0] + (5e-7, 0.0, 0.0)
        dist, cos = relations(pts, present)
        assert np.isnan(dist[PAIR_ROW[(1, 2)]])
        assert np.isnan(cos[TRIPLE_ROW[(2, 1, 3)]]) and np.isnan(cos[TRIPLE_ROW[(1, 2, 3)]])
        assert np.isfinite(dist[PAIR_ROW[(1, 3)]])

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
        assert (np.abs(d1 - d0) < 1e-9).all()
        assert (np.abs(c1 - c0) < 1e-9).all()


class TestRelationGeometry:
    """The flat-index gathers give the bytes of the 2-D fancy-index and norm formula."""

    def assert_same(self, centroids):
        got = relation_geometry(centroids)
        want = fancy_index_relation_geometry(centroids)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert np.array_equal(a, b, equal_nan=True)
        present = np.isfinite(centroids[1:, 0])
        dist, cos = relations(centroids[1:], present)
        assert np.array_equal(dist, want[1][PAIRS[:, 0], PAIRS[:, 1]], equal_nan=True)
        assert np.array_equal(cos, want[2], equal_nan=True)
        return got

    @pytest.mark.parametrize("seed", range(5))
    def test_random_centroids(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.uniform(-60.0, 60.0, (N_CLASSES, 3)) + rng.uniform(-1e4, 1e4, 3)
        _, length, cos = self.assert_same(m)
        assert np.isfinite(cos).all() and np.isnan(np.diag(length)).all()

    def test_absent_class(self, rng):
        m = rng.uniform(-30.0, 30.0, (N_CLASSES, 3))
        m[3] = np.nan
        _, length, cos = self.assert_same(m)
        assert np.isnan(length[3]).all() and np.isnan(length[:, 3]).all()
        assert np.isnan(cos[(TRIPLES == 3).any(axis=1)]).all()
        assert np.isfinite(cos[~(TRIPLES == 3).any(axis=1)]).all()

    def test_pair_below_the_floor(self, rng):
        m = rng.uniform(-30.0, 30.0, (N_CLASSES, 3))
        m[5] = m[2] + (0.3 * MIN_SEGMENT_MM, 0.0, 0.0)
        _, length, cos = self.assert_same(m)
        assert np.isnan(length[2, 5]) and np.isnan(length[5, 2])
        assert np.isfinite(length[2, 4])
        assert np.isnan(cos[TRIPLE_ROW[(2, 5, 4)]]) and np.isfinite(cos[TRIPLE_ROW[(2, 4, 5)]])


def _stats_arrays(p):
    """ShapeStats fields one z-score or so away from the descriptors of p."""
    d = case_descriptor(p)
    finite_pair = np.isfinite(d.pair_distance)
    finite_triple = np.isfinite(d.triple_cosine)
    return dict(
        volume_mean=d.soft_volume * 1.1, volume_std=0.2 * d.soft_volume,
        centroid_mean=d.soft_centroid + 1.0, second_moment_mean=d.second_moment * 1.1,
        class_n=np.where(d.present, 3, 0),
        pair_mean=d.pair_distance + 0.5, pair_std=np.where(finite_pair, 1.0, np.nan),
        pair_n=np.where(finite_pair, 3, 0).astype(np.intp),
        triple_mean=0.8 * d.triple_cosine, triple_std=np.where(finite_triple, 0.2, np.nan),
        triple_n=np.where(finite_triple, 3, 0).astype(np.int32), n_cases=3,
    )


class TestShapeStatsCannotGoStale:
    """Its arrays are private read-only copies, and its masks follow them."""

    FIELDS = [f.name for f in dataclasses.fields(ShapeStats) if f.init and f.name != "n_cases"]
    MASKS = ("usable", "volume_scored", "pair_scorable", "triple_scorable")

    @pytest.fixture
    def case(self):
        return soft_blob_case(1, (9, 8, 7), (1.3, 0.8, 1.1), (-40.0, 25.0, 7.5))

    def test_arrays_are_read_only(self, case):
        stats = ShapeStats(**_stats_arrays(case))
        for name in self.FIELDS + list(self.MASKS):
            arr = getattr(stats, name)
            with pytest.raises(ValueError):
                arr.reshape(-1)[0] = 1
            with pytest.raises(ValueError):
                arr += 1

    def test_construction_copies_the_callers_arrays(self, case):
        src = _stats_arrays(case)
        stats = ShapeStats(**src)
        kept = {name: getattr(stats, name).copy() for name in self.FIELDS + list(self.MASKS)}
        cfg = LossConfig(stats=stats)
        before = relation_loss(case, stats, cfg, need_grad=False).value
        for name in ("volume_std", "class_n", "pair_mean", "pair_std", "triple_std"):
            src[name][...] = 0
        for name in kept:
            assert np.array_equal(getattr(stats, name), kept[name], equal_nan=True)
        assert relation_loss(case, stats, cfg, need_grad=False).value == before

    def test_replace_derives_the_masks_again(self, case):
        stats = ShapeStats(**_stats_arrays(case))
        row = PAIR_ROW[(2, 5)]
        assert stats.pair_scorable[row]
        pair_std = stats.pair_std.copy()
        pair_std[row] = 0.0
        skipped = dataclasses.replace(stats, pair_std=pair_std)
        assert not skipped.pair_scorable[row]
        assert np.array_equal(skipped.pair_scorable, stats.pair_scorable & (pair_std > 0.0))
        assert not skipped.pair_std.flags.writeable and skipped.pair_std is not pair_std
        got = relation_loss(case, skipped, LossConfig(stats=skipped)).terms
        want, _ = dense_relation_terms(case, skipped)
        full = relation_loss(case, stats, LossConfig(stats=stats)).terms
        assert got["relation_dist"] != full["relation_dist"]
        for key in ("relation_dist", "relation_angle"):
            assert abs(got[key] - want[key]) <= 1e-12 * abs(want[key])

    def test_masks(self):
        stats = ShapeStats(
            volume_mean=np.full(N_CLASSES, 5.0),
            volume_std=np.array([1.0, 1.0, 0.0, np.inf, np.nan, 1.0, 1.0, 1.0]),
            centroid_mean=np.zeros((N_CLASSES, 3)),
            second_moment_mean=np.zeros((N_CLASSES, 3, 3)),
            class_n=np.array([0, 2, 2, 2, 2, 0, 1, 1]),
            pair_mean=np.where(np.arange(len(PAIRS)) == 0, np.nan, 1.0),
            pair_std=np.where(np.arange(len(PAIRS)) == 1, 0.0, 1.0),
            pair_n=np.full(len(PAIRS), 2),
            triple_mean=np.where(np.arange(len(TRIPLES)) == 2, np.inf, 0.5),
            triple_std=np.where(np.arange(len(TRIPLES)) == 3, np.nan, 0.1),
            triple_n=np.full(len(TRIPLES), 2),
            n_cases=2,
        )
        assert stats.usable.tolist() == [False, True, True, True, True, False, True, True]
        assert stats.volume_scored.tolist() == [False, True, False, False, False, False, True,
                                                True]
        assert [stats.class_usable(c) for c in range(N_CLASSES)] == stats.usable.tolist()
        assert np.flatnonzero(~stats.pair_scorable).tolist() == [0, 1]
        assert np.flatnonzero(~stats.triple_scorable).tolist() == [2, 3]
        assert "usable" not in repr(stats) and "scorable" not in repr(stats)

    def test_fields_keep_dtype_and_values(self, case):
        src = _stats_arrays(case)
        stats = ShapeStats(**src)
        assert len(self.FIELDS) == 11
        for name in self.FIELDS:
            assert getattr(stats, name).dtype == src[name].dtype
            assert np.array_equal(getattr(stats, name), src[name], equal_nan=True)
        assert stats.n_cases == 3 and type(stats.n_cases) is int

    def test_saved_stats_keep_their_bytes(self, tmp_path):
        grid = FovSpec((24, 24, 24), 4.0)
        labels = [generate(PhantomSpec(grid=grid, seed=0), k)[1] for k in range(3)]
        save_stats(aggregate([case_descriptor(one_hot(lab)) for lab in labels]),
                   tmp_path / "s.json")
        data = (tmp_path / "s.json").read_bytes().replace(json.dumps(__version__).encode(),
                                                          b'"X"')
        assert hashlib.sha256(data).hexdigest() == (
            "7e5d68c39d42fc7316ff58e2164961cdaf9e5e1946ffe76efd703e4292392340")


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
        assert np.isfinite(desc.pair_distance[PAIR_ROW[(1, 2)]])

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
        for mean, std, n, d in zip(stats.pair_mean, stats.pair_std, stats.pair_n,
                                   desc.pair_distance):
            if n:
                assert mean == pytest.approx(d)
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
        for name in ("pair_mean", "pair_std", "pair_n", "triple_mean", "triple_std", "triple_n"):
            np.testing.assert_array_equal(getattr(back, name), getattr(stats, name))

    def test_isolated_stats_object_is_constructible(self):
        # losses only need the arrays; relation arrays follow the PAIRS and TRIPLES rows
        stats = ShapeStats(
            volume_mean=np.full(8, np.nan),
            volume_std=np.full(8, np.nan),
            centroid_mean=np.full((8, 3), np.nan),
            second_moment_mean=np.full((8, 3, 3), np.nan),
            class_n=np.zeros(8, dtype=np.int64),
            pair_mean=np.full(len(PAIRS), np.nan),
            pair_std=np.full(len(PAIRS), np.nan),
            pair_n=np.zeros(len(PAIRS), dtype=np.int64),
            triple_mean=np.full(len(TRIPLES), np.nan),
            triple_std=np.full(len(TRIPLES), np.nan),
            triple_n=np.zeros(len(TRIPLES), dtype=np.int64),
            n_cases=0,
        )
        assert not stats.class_usable(1)

    def test_keys_are_sorted_table_rows(self, tmp_path, phantom_case):
        save_stats(aggregate([case_descriptor(one_hot(phantom_case[1]))]), tmp_path / "s.json")
        doc = json.loads((tmp_path / "s.json").read_text())
        # stats.json keys: pairs i < j, triples (i, j, k) with vertex j and i < k, sorted
        assert [e["pair"] for e in doc["pairs"]] == sorted(PAIRS.tolist())
        assert [e["triple"] for e in doc["triples"]] == sorted(TRIPLES.tolist())
        for e in doc["pairs"]:
            e["pair"] = e["pair"][::-1]
        (tmp_path / "s.json").write_text(json.dumps(doc))
        with pytest.raises(InvalidStats, match="not a row"):
            load_stats(tmp_path / "s.json")


def _key_paths(doc, prefix=()):
    """The path of every value in a JSON document: dict keys and list indices."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    paths = []
    for key, value in items:
        paths.append(prefix + (key,))
        paths.extend(_key_paths(value, prefix + (key,)))
    return paths


@pytest.fixture(scope="module")
def valid_stats_doc(tmp_path_factory):
    grid = FovSpec((16, 16, 16), 6.0)
    labels = [generate(PhantomSpec(grid=grid), k)[1] for k in range(2)]
    path = tmp_path_factory.mktemp("stats") / "stats.json"
    save_stats(aggregate([case_descriptor(one_hot(lab)) for lab in labels]), path)
    return json.loads(path.read_text())


class TestLoadStatsProperty:
    """A mutated stats.json loads or raises InvalidStats, never another exception."""

    #: Mutations after which the file is invalid and must not load.
    MUST_FAIL = ("reverse", "repeat", "class_id", "repeat_class", "drop_class", "count")

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_file_loads_or_fails_typed(self, tmp_path, valid_stats_doc, data):
        doc = copy.deepcopy(valid_stats_doc)
        mutation = data.draw(st.sampled_from(["drop", "value", "invent", *self.MUST_FAIL]))
        classes = doc["classes"]
        at = data.draw(st.integers(0, len(classes) - 1))
        other = (at + data.draw(st.integers(1, len(classes) - 1))) % len(classes)
        if mutation == "drop":
            paths = [p for p in _key_paths(doc) if isinstance(p[-1], str)]
            *parent, key = data.draw(st.sampled_from(paths))
            del functools.reduce(operator.getitem, parent, doc)[key]
        elif mutation == "value":
            *parent, key = data.draw(st.sampled_from(_key_paths(doc)))
            functools.reduce(operator.getitem, parent, doc)[key] = data.draw(
                st.sampled_from(["x", [1, 2], None, float("nan")]))
        elif mutation == "class_id":
            # id - 8 names the same class through a wrapping index
            classes[at]["id"] += data.draw(st.sampled_from([-8, 8, -100]))
        elif mutation == "repeat_class":
            classes[at] = copy.deepcopy(classes[other])
        elif mutation == "drop_class":
            del classes[at]
        elif mutation == "count":
            paths = [p for p in _key_paths(doc) if p[-1] == "n"]
            *parent, key = data.draw(st.sampled_from(paths))
            functools.reduce(operator.getitem, parent, doc)[key] = data.draw(
                st.sampled_from([-4, 2.5, doc["n_cases"] + 1, True]))
            if data.draw(st.booleans()):  # or a bad case count instead
                functools.reduce(operator.getitem, parent, doc)[key] = 1
                doc["n_cases"] = data.draw(st.sampled_from([0, -1, 1.5, "2"]))
        else:
            section, key = data.draw(st.sampled_from([("pairs", "pair"), ("triples", "triple")]))
            entries = doc[section]
            at = data.draw(st.integers(0, len(entries) - 1))
            if mutation == "reverse":
                entries[at][key] = entries[at][key][::-1]
            elif mutation == "repeat":
                other = (at + data.draw(st.integers(1, len(entries) - 1))) % len(entries)
                entries[at][key] = list(entries[other][key])
            else:
                entries[at][key] = data.draw(st.lists(st.integers(-1, 9), max_size=4))
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(doc))
        try:
            load_stats(path)
        except InvalidStats:
            return
        assert mutation not in self.MUST_FAIL, f"a file with a {mutation} mutation loaded"

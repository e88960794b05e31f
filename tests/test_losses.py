from dataclasses import replace

import numpy as np
import pytest

import cardioprior.losses as losses_mod
import cardioprior.stats as stats_mod
from cardioprior import (
    FOREGROUND_CLASSES,
    N_CLASSES,
    InvalidLossConfig,
    InvalidParameter,
    LossConfig,
    NoUsableStats,
    NotOneHot,
    ProbVolume,
    ShapeMismatch,
    UnknownLoss,
    Volume3,
    aggregate,
    case_descriptor,
    default_weights,
    gdice_ce,
    gradcheck,
    moment_loss,
    one_hot,
    relation_loss,
    softmax,
    total_loss,
    volume_loss,
    weight_gradcheck,
)
from cardioprior.losses import (
    CE_CLAMP, EPSILON_GD, _central_differences, _moment_terms, _relation_terms, gradient_errors,
)
from cardioprior.stats import PAIRS, TRIPLES, SoftMoments, grid_basis
from conftest import label_volume
from oracles import (
    dense_gdice_ce, dense_moment_loss, dense_relation_loss, per_entry_gradcheck, soft_blob_case,
)


def stats_for(p):
    return aggregate([case_descriptor(p)])


def hand_stats(**overrides):
    """Blank ShapeStats scaffold; tests override just the fields they score."""
    from cardioprior import ShapeStats

    base = dict(
        volume_mean=np.full(N_CLASSES, np.nan),
        volume_std=np.full(N_CLASSES, np.nan),
        centroid_mean=np.full((N_CLASSES, 3), np.nan),
        second_moment_mean=np.full((N_CLASSES, 3, 3), np.nan),
        class_n=np.zeros(N_CLASSES, dtype=np.int64),
        pair_mean=np.full(len(PAIRS), np.nan),
        pair_std=np.full(len(PAIRS), np.nan),
        pair_n=np.zeros(len(PAIRS), dtype=np.int64),
        triple_mean=np.full(len(TRIPLES), np.nan),
        triple_std=np.full(len(TRIPLES), np.nan),
        triple_n=np.zeros(len(TRIPLES), dtype=np.int64),
        n_cases=2,
    )
    base.update(overrides)
    return ShapeStats(**base)


#: PAIRS row of the pair (1, 2)
P12 = PAIRS.tolist().index([1, 2])


def pair_12(mean, std, n=2):
    """hand_stats overrides that give statistics to the pair (1, 2) only."""
    row = np.arange(len(PAIRS)) == P12
    return dict(pair_mean=np.where(row, mean, np.nan), pair_std=np.where(row, std, np.nan),
                pair_n=np.where(row, n, 0))


def two_class_labels():
    lab = np.zeros((8, 8, 8), dtype=np.uint8)
    lab[1:3, 1:3, 1:3] = 1
    lab[5:7, 5:7, 5:7] = 2
    return label_volume(lab)


def full_labels(rng):
    lab = rng.integers(0, N_CLASSES, size=(6, 6, 6)).astype(np.uint8)
    return label_volume(lab, (1.2, 0.9, 1.5))


def soft_prediction(rng, g):
    noise = 0.6 * rng.standard_normal(g.data.shape)
    return ProbVolume(softmax(4.0 * g.data + noise), g.spacing, g.offset)


class TestLossConfig:
    def test_defaults_all_one(self):
        w = default_weights()
        assert set(w) == {
            "gdice", "ce", "volume", "moment_centroid", "moment_second",
            "relation_dist", "relation_angle",
        }
        assert all(v == 1.0 for v in w.values())

    def test_partial_override_merges(self):
        cfg = LossConfig(weights={"volume": 0.5})
        assert cfg.weights["volume"] == 0.5
        assert cfg.weights["gdice"] == 1.0

    def test_rejects_unknown_key(self):
        with pytest.raises(InvalidLossConfig):
            LossConfig(weights={"boundary": 1.0})

    def test_rejects_negative_weight(self):
        with pytest.raises(InvalidLossConfig):
            LossConfig(weights={"ce": -0.1})

    def test_rejects_all_zero(self):
        with pytest.raises(InvalidLossConfig):
            LossConfig(weights={k: 0.0 for k in default_weights()})


class TestGdiceCe:
    def test_perfect_prediction(self, rng):
        lab = full_labels(rng)
        ev = gdice_ce(one_hot(lab), lab)
        assert ev.terms["ce"] == pytest.approx(0.0, abs=1e-9)
        assert 0.0 <= ev.terms["gdice"] < 1e-5
        assert ev.value == ev.terms["gdice"] + ev.terms["ce"]

    def test_uniform_prediction_ce_is_log8(self, rng):
        lab = full_labels(rng)
        g = one_hot(lab)
        p = ProbVolume(np.full(g.data.shape, 0.125), g.spacing, g.offset)
        ev = gdice_ce(p, lab)
        assert ev.terms["ce"] == pytest.approx(np.log(8.0), abs=1e-12)

    def test_value_nonnegative_and_grad_finite(self, rng):
        lab = full_labels(rng)
        p = soft_prediction(rng, one_hot(lab))
        ev = gdice_ce(p, lab)
        assert ev.value >= 0.0
        assert np.isfinite(ev.grad).all()

    def test_shape_mismatch(self, rng):
        lab = full_labels(rng)
        p = ProbVolume(np.full((8, 4, 4, 4), 0.125), (1, 1, 1))
        with pytest.raises(ShapeMismatch):
            gdice_ce(p, lab)

    def test_not_one_hot(self, rng):
        g = one_hot(full_labels(rng))
        soft = ProbVolume(np.full(g.data.shape, 0.125), g.spacing, g.offset)
        with pytest.raises(NotOneHot):
            gdice_ce(soft, soft)


class TestSoftmax:
    def test_bit_identical_to_plain_formula_and_input_unchanged(self, rng):
        logits = 3.0 * rng.standard_normal((N_CLASSES, 9, 8, 7))
        before = logits.copy()
        z = logits - logits.max(axis=0, keepdims=True)
        e = np.exp(z)
        plain = e / e.sum(axis=0, keepdims=True)
        assert softmax(logits).tobytes() == plain.tobytes()
        assert logits.tobytes() == before.tobytes()


class TestGdiceCeLabelPath:
    """The gather/bincount form against the dense one-hot formula."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        dims = ((5, 6, 7), (12, 11, 10), (21, 20, 19))[seed % 3]
        absent = int(rng.integers(0, N_CLASSES))
        present = np.delete(np.arange(N_CLASSES), absent)
        lab = label_volume(rng.choice(present, size=dims).astype(np.uint8), (1.2, 0.9, 1.5))
        P = softmax(2.0 * rng.standard_normal((N_CLASSES,) + dims)).reshape(N_CLASSES, -1)
        # own-class probabilities below, at and just above the CE clamp
        L = lab.data.reshape(-1)
        hit = rng.choice(L.size, size=9, replace=False)
        P[L[hit], hit] = np.repeat((0.0, 1e-15, CE_CLAMP), 3)
        P[L[hit[-2:]], hit[-2:]] = 2.0 * CE_CLAMP
        p = ProbVolume(P.reshape((N_CLASSES,) + dims), lab.spacing, lab.offset)
        w = {"gdice": float(rng.uniform(0.5, 2.0)), "ce": float(rng.uniform(0.5, 2.0))}
        cfg = LossConfig(weights=w)
        value, terms, grad = dense_gdice_ce(p, lab, w["gdice"], w["ce"], EPSILON_GD, CE_CLAMP)
        ev = gdice_ce(p, lab, cfg)
        assert ev.value == pytest.approx(value, rel=1e-12, abs=0.0)
        for key in terms:
            assert ev.terms[key] == pytest.approx(terms[key], rel=1e-12, abs=0.0)
        np.testing.assert_allclose(ev.grad, grad, rtol=1e-12, atol=0.0)
        assert gdice_ce(p, lab, cfg, need_grad=False).value == ev.value

    def test_one_hot_or_float_ground_truth_rejected(self, rng):
        lab = full_labels(rng)
        g = one_hot(lab)
        as_float = Volume3(lab.data.astype(np.float32), lab.spacing, lab.offset)
        for bad in (g, as_float):
            with pytest.raises(NotOneHot):
                gdice_ce(g, bad)
            with pytest.raises(NotOneHot):
                total_loss(np.zeros(g.data.shape), bad, LossConfig())


class TestVolumeLoss:
    def test_zero_at_reference(self, rng):
        p = one_hot(full_labels(rng))
        ev = volume_loss(p, stats_for_nonzero_sigma(p))
        assert ev.value == pytest.approx(0.0, abs=1e-18)
        assert np.abs(ev.grad).max() == 0.0

    def test_unit_z_score(self):
        lab = np.zeros((8, 8, 8), dtype=np.uint8)
        lab[0:2, 0:4, 0:4] = 1
        p = one_hot(label_volume(lab))
        sigma = 5.0
        stats = hand_stats(
            volume_mean=np.where(np.arange(8) == 1, 32.0 - sigma, np.nan),
            volume_std=np.where(np.arange(8) == 1, sigma, np.nan),
            class_n=(np.arange(8) == 1).astype(np.int64),
        )
        ev = volume_loss(p, stats)
        assert ev.value == pytest.approx(1.0, abs=1e-12)
        assert ev.terms["volume_LV"] == pytest.approx(1.0, abs=1e-12)

    def test_skipped_classes_report_zero_term(self):
        p = one_hot(two_class_labels())
        stats = stats_for(p)  # single case: stds are all 0, nothing scorable
        with pytest.raises(NoUsableStats):
            volume_loss(p, stats)

    def test_stable_term_keys(self, rng):
        p = one_hot(full_labels(rng))
        stats = stats_for_nonzero_sigma(p)
        ev = volume_loss(p, stats)
        assert set(ev.terms) == {f"volume_{name}" for name in CLASS_NAMES_FG}


class TestMomentLoss:
    def test_zero_on_own_statistics(self, rng):
        p = one_hot(full_labels(rng))
        ev = moment_loss(p, stats_for(p))
        assert ev.value == pytest.approx(0.0, abs=1e-9)

    def test_translation_shifts_centroid_term_quadratically(self, rng):
        lab = full_labels(rng)
        p = one_hot(lab)
        stats = stats_for(p)
        delta = 0.35
        shifted = ProbVolume(
            p.data, p.spacing, (p.offset[0] + delta, p.offset[1], p.offset[2])
        )
        base = moment_loss(p, stats)
        moved = moment_loss(shifted, stats)
        for c in FOREGROUND_CLASSES:
            name = CLASS_NAMES_FG[c - 1]
            d_cent = moved.terms[f"moment_centroid_{name}"] - base.terms[f"moment_centroid_{name}"]
            assert d_cent == pytest.approx(delta**2, abs=1e-9)
            assert moved.terms[f"moment_second_{name}"] == pytest.approx(
                base.terms[f"moment_second_{name}"], abs=1e-9
            )

    def test_no_usable_stats(self):
        p = one_hot(two_class_labels())
        with pytest.raises(NoUsableStats):
            moment_loss(p, hand_stats())


#: (seed, dims, spacing, offset, low-mass corner class) of the oracle instances
ORACLE_CASES = [
    (1, (9, 8, 7), (1.3, 0.8, 1.1), (-40.0, 25.0, 7.5), None),
    (2, (8, 9, 10), (1.5, 1.0, 0.75), (1e4, 1e4, 1e4), None),
    (3, (10, 8, 9), (0.9, 1.2, 1.0), (5.0, -3.0, 2.0), 7),
    (4, (8, 8, 8), (1.1, 1.1, 1.4), (1e4, -1e4, 1e4), 4),
]

#: More voxels than one tile of total_loss, for the probability-interface
#: losses, which take the whole grid as one tile.
LARGE_CASE = (5, (23, 19, 29), (1.2, 1.0, 0.9), (3.0, -2.0, 1.0), None)


def shifted_stats(p):
    """Stats a few mm and a few z-scores away from the case's own descriptors."""
    d = case_descriptor(p)
    sign = np.where(np.arange(N_CLASSES) % 2 == 0, 1.0, -1.0)
    return hand_stats(
        centroid_mean=d.soft_centroid + np.outer(sign, (1.5, -1.0, 2.0)),
        second_moment_mean=d.second_moment * (1.0 + 0.2 * sign)[:, None, None],
        class_n=np.full(N_CLASSES, 3),
        pair_mean=1.1 * d.pair_distance + 0.5,
        pair_std=np.where(np.isfinite(d.pair_distance), 1.0, np.nan),
        pair_n=np.where(np.isfinite(d.pair_distance), 3, 0),
        triple_mean=0.8 * d.triple_cosine,
        triple_std=np.where(np.isfinite(d.triple_cosine), 0.2, np.nan),
        triple_n=np.where(np.isfinite(d.triple_cosine), 3, 0),
    )


class TestDenseOracles:
    """The grid-basis gradients against the per-voxel centred formulas.

    Instances include grids 1e4 mm from the origin and a class with a few
    voxels of mass in a grid corner. At 1e4 mm one ulp of a world centroid
    is 1.8e-12 mm, so the stats sit mm away: a 1e-12 relative gate then
    measures the loss, not the rounding of its reference point.
    """

    @pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: f"seed{c[0]}")
    @pytest.mark.parametrize("fn, oracle", [(moment_loss, dense_moment_loss),
                                            (relation_loss, dense_relation_loss)],
                             ids=["moment", "relation"])
    def test_matches_per_voxel_formulas(self, case, fn, oracle):
        p = soft_blob_case(*case)
        stats = shifted_stats(p)
        ev = fn(p, stats)
        value, grad = oracle(p, stats)
        assert abs(ev.value - value) <= 1e-12 * abs(value)
        assert np.abs(ev.grad - grad).max() <= 1e-12 * np.abs(grad).max()

    @pytest.mark.parametrize("case", ORACLE_CASES + [LARGE_CASE], ids=lambda c: f"seed{c[0]}")
    @pytest.mark.parametrize("fn", [moment_loss, relation_loss], ids=["moment", "relation"])
    def test_given_moments_change_no_bit(self, case, fn):
        # the loss builds its soft moments from its own basis sums
        # (SoftMoments(raw=)); given the moments SoftMoments(p) makes
        # itself, the component's terms function yields the same bits
        p = soft_blob_case(*case)
        # class 2 without stats: absent from the moments
        stats = replace(shifted_stats(p), class_n=np.where(np.arange(N_CLASSES) == 2, 0, 3))
        moments = SoftMoments(p, [c for c in FOREGROUND_CLASSES if stats.class_usable(c)])
        terms_fn, rows = {moment_loss: (_moment_terms, 10), relation_loss: (_relation_terms, 4)}[fn]
        w = LossConfig().weights
        for need_grad in (True, False):
            own = fn(p, stats, need_grad=need_grad)
            coef = np.zeros((N_CLASSES, rows)) if need_grad else None
            value, terms = terms_fn(w, stats, moments, coef)
            assert value == own.value and terms == own.terms
            assert (own.grad is None) == (not need_grad)
            if need_grad:
                given = coef @ grid_basis(p.dims, p.spacing)[:rows]
                assert given.tobytes() == own.grad.tobytes()

    @pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: f"seed{c[0]}")
    def test_moment_terms_are_the_per_class_products(self, case):
        # all classes are scored at once, with the bits of each class's own
        # dm @ dm and (dM * dM).sum()
        p = soft_blob_case(*case)
        stats = shifted_stats(p)
        jitter = np.random.default_rng(case[0]).standard_normal((N_CLASSES, 3))
        stats = replace(stats, centroid_mean=stats.centroid_mean + jitter)
        cfg = LossConfig(weights={"moment_centroid": 0.7, "moment_second": 1.3})
        ev = moment_loss(p, stats, cfg, need_grad=False)
        mom = SoftMoments(p, FOREGROUND_CLASSES)
        for c in FOREGROUND_CLASSES:
            dm = mom.centroid[c] - stats.centroid_mean[c]
            dM = mom.second_moment[c] - stats.second_moment_mean[c]
            name = CLASS_NAMES_FG[c - 1]
            assert ev.terms[f"moment_centroid_{name}"] == 0.7 * float(dm @ dm)
            assert ev.terms[f"moment_second_{name}"] == 1.3 * float((dM * dM).sum())

    def test_low_mass_corner_class_is_scored(self):
        p = soft_blob_case(*ORACLE_CASES[3])
        assert 1.0 < p.data[4].sum() < 5.0
        ev = moment_loss(p, shifted_stats(p))
        assert ev.terms["moment_second_RA"] > 0.0 and np.any(ev.grad[4])


class TestRelationLoss:
    def test_zero_when_constellation_matches(self):
        p = one_hot(two_class_labels())
        desc = case_descriptor(p)
        stats = hand_stats(
            class_n=np.isin(np.arange(8), (1, 2)).astype(np.int64),
            **pair_12(desc.pair_distance[P12], 1.0),
        )
        ev = relation_loss(p, stats)
        assert ev.value == pytest.approx(0.0, abs=1e-18)
        assert ev.terms["relation_dist"] == 0.0
        assert ev.terms["relation_angle"] == 0.0

    def test_unit_distance_z_score(self):
        p = one_hot(two_class_labels())
        desc = case_descriptor(p)
        s = 0.8
        stats = hand_stats(
            class_n=np.isin(np.arange(8), (1, 2)).astype(np.int64),
            **pair_12(desc.pair_distance[P12] - s, s),
        )
        ev = relation_loss(p, stats)
        assert ev.terms["relation_dist"] == pytest.approx(1.0, abs=1e-9)

    def test_translation_invariance(self):
        p = one_hot(two_class_labels())
        desc = case_descriptor(p)
        stats = hand_stats(
            class_n=np.isin(np.arange(8), (1, 2)).astype(np.int64),
            **pair_12(desc.pair_distance[P12] - 0.5, 0.5),
        )
        moved = ProbVolume(p.data, p.spacing, (7.0, -11.0, 3.5))
        assert relation_loss(moved, stats).value == pytest.approx(
            relation_loss(p, stats).value, abs=1e-9
        )

    def test_needs_two_usable_classes(self):
        p = one_hot(two_class_labels())
        stats = hand_stats(class_n=(np.arange(8) == 1).astype(np.int64))
        with pytest.raises(NoUsableStats):
            relation_loss(p, stats)


class TestMemoryLayout:
    def test_fortran_ordered_probabilities_keep_their_gradients(self, rng):
        lab = full_labels(rng)
        p = soft_prediction(rng, one_hot(lab))
        fortran = ProbVolume(np.asfortranarray(p.data), p.spacing, p.offset)
        stats = stats_for_nonzero_sigma(one_hot(full_labels(np.random.default_rng(7))))
        for fn in (volume_loss, moment_loss, relation_loss):
            want = fn(p, stats)
            got = fn(fortran, stats)
            assert np.any(want.grad)
            assert got.grad.tobytes() == want.grad.tobytes(), fn.__name__


class TestOwnStatsScoreZero:
    """Descriptors and losses share one moment kernel and one relation table."""

    def soft_case(self):
        rng = np.random.default_rng(11)
        lab = np.zeros((9, 8, 7), dtype=np.uint8)
        for c, corner in zip(FOREGROUND_CLASSES, rng.integers(0, 5, size=(7, 3))):
            x, y, z = corner
            lab[x:x + 4, y:y + 3, z:z + 3] = c
        g = one_hot(label_volume(lab, (1.3, 0.8, 1.1), (-40.0, 25.0, 7.5)))
        logits = 3.0 * g.data + rng.standard_normal(g.data.shape)
        return ProbVolume(softmax(logits), g.spacing, g.offset)

    def test_moment_loss_is_exactly_zero(self):
        p = self.soft_case()
        ev = moment_loss(p, stats_for(p))
        assert ev.value == 0.0
        assert not np.any(ev.grad)

    def test_relation_loss_is_exactly_zero(self):
        p = self.soft_case()
        stats = stats_for(p)
        stats = hand_stats(
            class_n=stats.class_n,
            pair_mean=stats.pair_mean, pair_std=np.where(stats.pair_n > 0, 1.0, np.nan),
            pair_n=stats.pair_n,
            triple_mean=stats.triple_mean, triple_std=np.where(stats.triple_n > 0, 1.0, np.nan),
            triple_n=stats.triple_n,
        )
        assert np.count_nonzero(stats.pair_n) == 21 and np.count_nonzero(stats.triple_n) == 105
        ev = relation_loss(p, stats)
        assert ev.value == 0.0
        assert not np.any(ev.grad)

    def test_short_segment_skipped(self):
        # classes 1 and 2 share two voxels with centroids 5e-7 mm apart
        data = np.zeros((N_CLASSES, 2, 1, 1))
        eps = 2.5e-7
        data[1, :, 0, 0] = (0.25, 0.25)
        data[2, :, 0, 0] = (0.25 - eps, 0.25 + eps)
        data[0] = 1.0 - data[1:].sum(axis=0)
        p = ProbVolume(data, (1.0, 1.0, 1.0))
        stats = hand_stats(
            class_n=np.isin(np.arange(8), (1, 2)).astype(np.int64),
            **pair_12(3.0, 1.0),
        )
        ev = relation_loss(p, stats)
        assert ev.terms["relation_dist"] == 0.0
        assert not np.any(ev.grad)


class TestTotalLoss:
    def test_reduces_to_gdice_ce(self, rng):
        lab = full_labels(rng)
        g = one_hot(lab)
        logits = rng.standard_normal(g.data.shape)
        zeros = {k: 0.0 for k in ("volume", "moment_centroid", "moment_second",
                                  "relation_dist", "relation_angle")}
        ev = total_loss(logits, lab, LossConfig(weights=zeros))
        p = ProbVolume(softmax(logits), g.spacing, g.offset)
        ref = gdice_ce(p, lab)
        assert ev.value == ref.value
        assert ev.terms == ref.terms

    def test_shift_invariance_and_grad_sum(self, rng):
        lab = full_labels(rng)
        g = one_hot(lab)
        logits = rng.standard_normal(g.data.shape)
        ev = total_loss(logits, lab, LossConfig(weights={"gdice": 1.0, "ce": 1.0,
                                                       **dict.fromkeys(
                                                           ("volume", "moment_centroid",
                                                            "moment_second", "relation_dist",
                                                            "relation_angle"), 0.0)}))
        shifted = logits.copy()
        shifted[:, 2, 3, 1] += 4.2
        ev2 = total_loss(shifted, lab, LossConfig(weights={"gdice": 1.0, "ce": 1.0,
                                                         **dict.fromkeys(
                                                             ("volume", "moment_centroid",
                                                              "moment_second", "relation_dist",
                                                              "relation_angle"), 0.0)}))
        assert ev2.value == pytest.approx(ev.value, abs=1e-12)
        assert abs(ev.grad[:, 2, 3, 1].sum()) < 1e-12

    def test_full_config_terms_sum_to_value(self, rng):
        lab = full_labels(rng)
        g = one_hot(lab)
        logits = 2.0 * rng.standard_normal(g.data.shape)
        stats = stats_for_nonzero_sigma(one_hot(full_labels(np.random.default_rng(7))))
        ev = total_loss(logits, lab, LossConfig(stats=stats))
        assert ev.value == pytest.approx(sum(ev.terms.values()), abs=1e-9)
        assert np.isfinite(ev.grad).all()

    def test_requires_stats_for_regularizers(self, rng):
        lab = full_labels(rng)
        g = one_hot(lab)
        with pytest.raises(NoUsableStats):
            total_loss(np.zeros(g.data.shape), lab, LossConfig())

    def test_shape_mismatch(self, rng):
        lab = full_labels(rng)
        with pytest.raises(ShapeMismatch):
            total_loss(np.zeros((8, 4, 4, 4)), lab, LossConfig())

    @pytest.mark.parametrize("shape", [(3, 6, 6, 5), (3, 4, 6, 9), (3, 216, 1), (3, 215), (4, 216)],
                             ids=["fewer-voxels", "same-count-other-dims", "three-dims-flat",
                                  "flat-short", "feature-count"])
    def test_features_shape_mismatch(self, rng, shape):
        lab = full_labels(rng)
        with pytest.raises(ShapeMismatch):
            total_loss(np.zeros((8, 3)), lab, LossConfig(), features=np.zeros(shape))

    @pytest.mark.parametrize("shape", [(3, 216), (3, 6, 6, 6)], ids=["flat", "grid"])
    def test_features_flat_or_grid(self, rng, shape):
        lab = full_labels(rng)
        cfg = LossConfig(weights={k: float(k in ("gdice", "ce")) for k in default_weights()})
        ev = total_loss(np.zeros((8, 3)), lab, cfg, features=np.ones(shape))
        assert ev.grad.shape == (8, 3)


class TestGradcheck:
    def test_volume_gradcheck_seed0(self):
        report = gradcheck("volume", size=8, seed=0)
        assert report["max_rel_err"] < 1e-6
        assert report["n_entries"] == 8 * 8 * 8 * 8

    def test_unknown_loss(self):
        with pytest.raises(UnknownLoss):
            gradcheck("boundary", size=8, seed=0)

    @pytest.mark.parametrize("loss", ["moment", "relation"])
    def test_check_that_compares_nothing_is_an_error(self, loss):
        # one voxel: every centroid sits on it, so both gradients are 0 everywhere
        with pytest.raises(InvalidParameter, match="compares nothing"):
            gradcheck(loss, size=1, seed=0)

    def test_gradient_errors_need_one_entry_at_the_floor(self):
        with pytest.raises(InvalidParameter):
            gradient_errors(np.zeros(3), np.full(3, 9e-9))
        abs_err, rel_err = gradient_errors(np.array([0.0, 1e-8]), np.zeros(2))
        assert abs_err.tolist() == [0.0, 1e-8] and rel_err.tolist() == [0.0, 1.0]

    def test_central_differences_on_a_quadratic(self, rng):
        # two arrays, two terms: L = x^T A x / 2 + sum(c * y^2); each
        # array's evaluator takes a stack of its copies, the other unmoved
        A = rng.standard_normal((6, 6))
        A = A + A.T
        c = rng.uniform(0.5, 2.0, 4)
        x, y = rng.standard_normal((3, 2)), rng.standard_normal(4)
        before = [x.tobytes(), y.tobytes()]
        grad = np.concatenate([A @ x.ravel(), 2.0 * c * y])

        def x_terms(xs):
            xs = xs.reshape(len(xs), -1)
            return 0.5 * ((xs @ A) * xs).sum(axis=1), np.full(len(xs), (c * y * y).sum())

        def y_terms(ys):
            return np.full(len(ys), 0.5 * x.ravel() @ A @ x.ravel()), (c * ys * ys).sum(axis=1)

        inputs = [(x, x_terms), (y, y_terms)]
        report, worst = _central_differences(inputs, grad, 1e-5, 1)
        assert [x.tobytes(), y.tobytes()] == before
        assert report["step"] == 1e-5 and report["n_entries"] == 10
        assert report["max_abs_err"] < 1e-9
        assert 0 <= worst < 10
        grad[7] += 1.0  # a wrong entry of y is the worst one
        report, worst = _central_differences(inputs, grad, 1e-5, 1)
        assert worst == 7 and report["max_abs_err"] > 0.99
        assert [x.tobytes(), y.tobytes()] == before


class TestBatchedFiniteDifferences:
    """gradcheck's stacked evaluations against the per-entry in-place oracle."""

    CASES = [(5, seed) for seed in range(4)] + [(8, 0)]

    @pytest.mark.parametrize("chunk", ["default", "short_tail"])
    @pytest.mark.parametrize("size, seed", CASES, ids=[f"{s}^3-seed{k}" for s, k in CASES])
    def test_equals_per_entry_oracle(self, monkeypatch, size, seed, chunk):
        n = N_CLASSES * size**3
        if chunk == "short_tail":
            # 7 entries per chunk: the last chunk holds n % 7 of them
            monkeypatch.setattr(losses_mod, "FD_CHUNK_BYTES", 2 * 7 * 8 * n)
            assert n % 7 != 0
        for loss in losses_mod.GRADCHECK_LOSSES:
            assert gradcheck(loss, size=size, seed=seed) == per_entry_gradcheck(loss, size, seed)

    def test_items_that_disagree_on_the_scored_pairs(self, monkeypatch):
        # A segment floor at one pair's measured length: moving an entry
        # lengthens that segment in some copies of a chunk and shortens it
        # in others, so the rows disagree on whether the pair scores.
        _, p, _ = losses_mod._gradcheck_instance(5, 0, "relation")
        floor = float(case_descriptor(p).pair_distance[0])
        monkeypatch.setattr(stats_mod, "MIN_SEGMENT_MM", floor)
        mixed = []
        sum_of_squares = losses_mod._sum_of_squares

        def recording(x, ok, mean, std):
            mixed.append(ok.ndim > 1 and bool((ok != ok[0]).any()))
            return sum_of_squares(x, ok, mean, std)

        monkeypatch.setattr(losses_mod, "_sum_of_squares", recording)
        report = gradcheck("relation", size=5, seed=0)
        assert any(mixed)
        monkeypatch.setattr(losses_mod, "_sum_of_squares", sum_of_squares)
        assert report == per_entry_gradcheck("relation", 5, 0)

    @pytest.mark.parametrize("loss, fn", [("relation", "relation_loss"), ("total", "total_loss")])
    def test_planted_error_fails_the_gate(self, monkeypatch, loss, fn):
        exact = getattr(losses_mod, fn)
        planted = []

        def off_by_1e4(*args, **kwargs):
            ev = exact(*args, **kwargs)
            if ev.grad is not None:
                grad = ev.grad.copy()
                at = np.unravel_index(np.argmax(np.abs(grad)), grad.shape)
                grad[at] *= 1.0 + 1e-4
                planted.append([int(i) for i in at])
                ev = losses_mod.LossEval(ev.value, grad, ev.terms)
            return ev

        monkeypatch.setattr(losses_mod, fn, off_by_1e4)
        report = gradcheck(loss, size=5, seed=0)
        assert len(planted) == 1
        assert report["max_rel_err"] >= 1e-6
        assert report["argmax"] == planted[0]


class TestGradcheckInputs:
    @pytest.mark.parametrize("kwargs", [{"size": 2.5}, {"size": True}, {"seed": 1.5},
                                        {"seed": -1}, {"step": 0.0}, {"step": float("nan")},
                                        {"step": -1e-5}],
                             ids=["size-float", "size-bool", "seed-float", "seed-negative",
                                  "step-zero", "step-nan", "step-negative"])
    def test_gradcheck_rejects_bad_input(self, kwargs):
        with pytest.raises(InvalidParameter):
            gradcheck("volume", **{"size": 3, **kwargs})

    @pytest.mark.parametrize("kwargs", [{"seed": -1}, {"seed": 1.5}, {"step": 0.0},
                                        {"step": float("inf")}],
                             ids=["seed-negative", "seed-float", "step-zero", "step-inf"])
    def test_weight_gradcheck_rejects_bad_input(self, kwargs):
        with pytest.raises(InvalidParameter):
            weight_gradcheck(**kwargs)


# per-class term names used across the tests above
CLASS_NAMES_FG = ("LV", "RV", "LA", "RA", "myocardium", "ascending_aorta", "pulmonary_artery")


def stats_for_nonzero_sigma(p):
    """Own-case means with a healthy synthetic sigma so nothing is skipped."""
    stats = stats_for(p)
    sigma = np.where(np.isfinite(stats.volume_mean), 7.5, np.nan)
    return hand_stats(
        volume_mean=stats.volume_mean,
        volume_std=sigma,
        centroid_mean=stats.centroid_mean,
        second_moment_mean=stats.second_moment_mean,
        class_n=stats.class_n,
        pair_mean=stats.pair_mean,
        pair_std=np.where(stats.pair_n > 0, 1.0, np.nan),
        pair_n=np.where(stats.pair_n > 0, 2, 0),
        triple_mean=stats.triple_mean,
        triple_std=np.where(stats.triple_n > 0, 1.0, np.nan),
        triple_n=np.where(stats.triple_n > 0, 2, 0),
    )

import json
import math
import threading

import numpy as np
import pytest

from cardioprior import (
    DEFAULT_STEP_SIZE,
    N_CLASSES,
    ArityMismatch,
    FovSpec,
    GridMismatch,
    InvalidModel,
    InvalidParameter,
    IoFailure,
    Jitter,
    LossConfig,
    NonfiniteLoss,
    PhantomSpec,
    ShapeStats,
    TrainConfig,
    Volume3,
    aggregate,
    argmax_labels,
    build_atlas,
    case_descriptor,
    evaluate_case,
    experiment_weights,
    feature_names,
    featurize,
    forward,
    generate,
    init_model,
    load_model,
    one_hot,
    predict,
    save_model,
    save_trace_csv,
    soft_volume,
    train,
    weight_gradcheck,
)
from cardioprior.losses import TILE_VOXELS, total_loss
from cardioprior.stats import PAIRS, TRIPLES
from cardioprior.trainer import (
    EXPERIMENT_WEIGHTS, _aux_eval, _case_eval, _flat_inputs, _weight_check_fixture,
)
from oracles import (
    full_grid_aux_eval, stacked_featurize, unmemoised_weight_gradcheck, untiled_case_objective,
    whole_grid_predict,
)

BASELINE_ONLY = {k: 0.0 for k in ("volume", "moment_centroid", "moment_second",
                                  "relation_dist", "relation_angle")}


@pytest.fixture(scope="module")
def atlas48(phantom_case):
    _, labels = phantom_case
    return build_atlas([labels], FovSpec((48, 48, 48), 2.0))


def const_image(value=7.0, dims=(9, 9, 9)):
    return Volume3(np.full(dims, value, dtype=np.float32), (1.0, 1.0, 1.0))


class TestFeaturize:
    def test_constant_image_smoothing_fixed_point(self):
        stack = featurize(const_image())
        names = stack.names
        for key in ("intensity", "box_mean_r1", "box_mean_r2"):
            assert (stack.data[names.index(key)] == 0.0).all()  # the standardized constant
        assert (stack.data[names.index("bias")] == 1.0).all()

    def test_center_voxel_coordinates_are_zero(self):
        stack = featurize(const_image(dims=(9, 7, 5)))
        names = stack.names
        for axis, key in enumerate(("coord_x", "coord_y", "coord_z")):
            plane = stack.data[names.index(key)]
            assert plane[4, 3, 2] == 0.0
            assert plane.min() == -1.0 and plane.max() == 1.0

    def test_atlas_values_become_features_verbatim(self, phantom_case, atlas48):
        image, _ = phantom_case
        stack = featurize(image, atlas48)
        assert stack.names == feature_names(True)
        base = stack.names.index("atlas_background")
        assert (stack.data[base:base + N_CLASSES] == atlas48.heatmaps).all()

    def test_grid_mismatch_with_atlas(self, atlas48, monkeypatch):
        from scipy import ndimage

        filtered = []
        monkeypatch.setattr(ndimage, "uniform_filter",
                            lambda *a, **k: filtered.append(1))
        off_grid = Volume3(np.zeros((48, 48, 48), dtype=np.float32), (2.0, 2.0, 2.0))
        with pytest.raises(GridMismatch):
            featurize(off_grid, atlas48)
        assert filtered == []  # the grid is checked before any filtering

    def test_standardize_centers_intensity(self, phantom_case):
        image, _ = phantom_case
        stack = featurize(image)
        plane = stack.data[stack.names.index("intensity")]
        assert abs(plane.mean()) < 1e-9
        assert plane.std() == pytest.approx(1.0, abs=1e-9)


def read_back(tmp_path, image):
    """``image`` written to disk and read again: a Fortran-ordered Volume3."""
    from cardioprior import read_volume, write_volume

    path = str(tmp_path / "image.mhd")
    write_volume(image, path)
    return read_volume(path)


def _odd_grid():
    """Two phantoms on a 23 x 19 x 29 grid, one full tile and a 4481-voxel
    tail, and the atlas of their labels."""
    spec = PhantomSpec(grid=FovSpec((23, 19, 29), 5.0), seed=1)
    cases = [generate(spec, k) for k in range(2)]
    return cases, build_atlas([lab for _, lab in cases], spec.grid)


def _bytes_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestWholeGridOracles:
    """The single-buffer and tiled paths against the whole-grid ones they replace."""

    def test_featurize_equals_stacked_planes(self, phantom_case, atlas48, tmp_path):
        image, _ = phantom_case
        from_disk = read_back(tmp_path, image)
        assert from_disk.data.flags.f_contiguous and not from_disk.data.flags.c_contiguous
        for img, atlas in ((image, atlas48), (from_disk, atlas48), (from_disk, None),
                           (const_image(), None)):
            assert _bytes_equal(featurize(img, atlas).data, stacked_featurize(img, atlas))

    def test_featurize_one_voxel_axis(self, rng):
        for dims in ((1, 7, 5), (6, 1, 1)):
            img = Volume3(rng.normal(100.0, 20.0, dims).astype(np.float32), (1.0, 2.0, 3.0))
            data = featurize(img).data
            assert _bytes_equal(data, stacked_featurize(img))
            assert (data[3 + dims.index(1)] == 0.0).all()

    def test_predict_equals_whole_grid_softmax(self, phantom_case, atlas48, tmp_path):
        cases, atlas = _odd_grid()
        assert divmod(int(np.prod(cases[0][0].dims)), TILE_VOXELS) == (1, 4481)
        rng = np.random.default_rng(7)
        names = feature_names(True)
        for image, at, scale in ((cases[0][0], atlas, 1.0), (cases[1][0], atlas, 50.0),
                                 (read_back(tmp_path, phantom_case[0]), atlas48, 1.0)):
            shape = (N_CLASSES, len(names))
            model = init_model(names, aux=True)
            model = type(model)(scale * rng.standard_normal(shape), names,
                                rng.standard_normal(shape))
            assert _bytes_equal(predict(model, image, at).data,
                                whole_grid_predict(model, image, at))

    def test_aux_eval_one_tile_is_bit_equal(self):
        W, W_aux, flats, _, cfg, aux_target = _weight_check_fixture(0)
        assert flats[0].shape[1] <= TILE_VOXELS
        for flat in flats:
            for need_grad in (False, True):
                got = _aux_eval(W_aux, flat, cfg, aux_target, need_grad)
                want = full_grid_aux_eval(W_aux, flat, cfg.aux_weight, aux_target, need_grad)
                assert got[0] == want[0]
                assert (got[1] is None) == (want[1] is None)
                if need_grad:
                    assert _bytes_equal(got[1], want[1])

    def test_aux_eval_across_tiles(self, phantom_trio):
        flat, _, aux_target, _ = phantom_trio
        W_aux = 0.1 * np.random.default_rng(11).standard_normal((N_CLASSES, flat.shape[0]))
        cfg = TrainConfig(aux_weight=0.5)
        term, grad = _aux_eval(W_aux, flat, cfg, aux_target, True)
        want_term, want_grad = full_grid_aux_eval(W_aux, flat, 0.5, aux_target, True)
        assert abs(term - want_term) <= 1e-14 * abs(want_term)
        assert np.abs(grad - want_grad).max() <= 1e-14 * np.abs(want_grad).max()
        assert _aux_eval(W_aux, flat, cfg, aux_target, False) == (term, None)

    @staticmethod
    def _peak_bytes(fn, *args):
        import tracemalloc

        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_featurize_memory(self, phantom_case, atlas48):
        image, _ = phantom_case
        featurize(image, atlas48)  # scipy imported and warmed outside the trace
        plane = 8 * image.data.size
        n_features = len(feature_names(True))
        assert self._peak_bytes(featurize, image, atlas48) <= (n_features + 3) * plane

    def test_predict_memory(self, phantom_case, atlas48):
        image, _ = phantom_case
        model = init_model(feature_names(True), aux=True)
        predict(model, image, atlas48)
        plane = 8 * image.data.size
        n_features = len(feature_names(True))
        peak = self._peak_bytes(predict, model, image, atlas48)
        assert peak <= (n_features + N_CLASSES + 2) * plane


class TestForward:
    def test_zero_weights_give_uniform_softmax(self):
        stack = featurize(const_image())
        model = init_model(feature_names(False))
        logits, aux = forward(model, stack)
        assert (logits == 0.0).all()
        assert aux is None
        p = predict(model, const_image())
        assert np.abs(p.data - 0.125).max() == 0.0

    def test_doubling_one_row_moves_only_that_logit(self, rng):
        stack = featurize(const_image())
        names = feature_names(False)
        W = rng.standard_normal((N_CLASSES, len(names)))
        m1 = init_model(names)
        m1 = type(m1)(W, names)
        m2 = type(m1)(np.vstack([W[:3], 2.0 * W[3:4], W[4:]]), names)
        l1, _ = forward(m1, stack)
        l2, _ = forward(m2, stack)
        assert (l1[[0, 1, 2, 4, 5, 6, 7]] == l2[[0, 1, 2, 4, 5, 6, 7]]).all()
        assert (l2[3] == 2.0 * l1[3]).all()

    def test_finite_inputs_give_finite_logits(self, rng):
        stack = featurize(const_image())
        names = feature_names(False)
        model = init_model(names)
        model = type(model)(100.0 * rng.standard_normal((N_CLASSES, len(names))), names)
        logits, _ = forward(model, stack)
        assert np.isfinite(logits).all()

    def test_arity_mismatch(self, phantom_case, atlas48):
        image, _ = phantom_case
        model = init_model(feature_names(False))
        with pytest.raises(ArityMismatch):
            forward(model, featurize(image, atlas48))


class TestPredict:
    def test_probabilities_sum_to_one(self, phantom_case, rng):
        image, _ = phantom_case
        names = feature_names(False)
        model = init_model(names)
        model = type(model)(0.3 * rng.standard_normal((N_CLASSES, len(names))), names)
        p = predict(model, image)
        assert np.abs(p.data.sum(axis=0) - 1.0).max() < 1e-12

    def test_feeds_evaluate_case(self, phantom_case):
        image, labels = phantom_case
        pred = argmax_labels(predict(init_model(feature_names(False)), image))
        report = evaluate_case(pred, labels)
        assert report.macro["dice"] == 0.0  # uniform model predicts background


def tiny_cases(n=2, noise=8.0):
    spec = PhantomSpec(grid=FovSpec((24, 24, 24), 4.0), noise_sigma=noise)
    return [generate(spec, i) for i in range(n)]


class TestTrain:
    def test_zero_step_leaves_weights_and_trace_flat(self):
        cases = tiny_cases()
        model = init_model(feature_names(False))
        cfg = TrainConfig(step_size=0.0, epochs=5,
                          loss=LossConfig(weights=BASELINE_ONLY))
        trained, trace = train(model, cases, cfg)
        assert (trained.weights == model.weights).all()
        totals = [row["total"] for row in trace]
        assert len(set(totals)) == 1

    def test_aux_weight_zero_matches_disabled_head(self, phantom_case, atlas48):
        image, labels = phantom_case
        cases = [(image, labels)]
        cfg = TrainConfig(step_size=DEFAULT_STEP_SIZE, epochs=3, atlas=atlas48,
                          aux_weight=0.0, loss=LossConfig(weights=BASELINE_ONLY))
        names = feature_names(True)
        with_aux, _ = train(init_model(names, aux=True), cases, cfg)
        without, _ = train(init_model(names, aux=False), cases, cfg)
        assert with_aux.weights.tobytes() == without.weights.tobytes()
        assert (with_aux.aux_weights == 0.0).all()

    def test_aux_head_learns_when_weighted(self, phantom_case, atlas48):
        image, labels = phantom_case
        cfg = TrainConfig(step_size=DEFAULT_STEP_SIZE, epochs=3, atlas=atlas48,
                          aux_weight=0.5, loss=LossConfig(weights=BASELINE_ONLY))
        trained, trace = train(init_model(feature_names(True), aux=True),
                               [(image, labels)], cfg)
        assert (trained.aux_weights != 0.0).any()
        assert "aux_mse" in trace[0]

    def test_deterministic_across_jobs(self):
        # 24^3 is two tiles of the case objective: one full, one partial
        cases = tiny_cases(3)
        assert TILE_VOXELS < 24**3 < 2 * TILE_VOXELS
        stats = aggregate([case_descriptor(one_hot(lab)) for _, lab in cases])
        model = init_model(feature_names(False))
        for config in EXPERIMENT_WEIGHTS:
            loss = LossConfig(weights=experiment_weights(config), stats=stats)
            t1, trace1 = train(model, cases, TrainConfig(epochs=4, loss=loss, jobs=1))
            t3, trace3 = train(model, cases, TrainConfig(epochs=4, loss=loss, jobs=3))
            assert t1.weights.tobytes() == t3.weights.tobytes(), config
            assert trace1 == trace3, config

    def test_one_thread_pool_per_train_call(self, monkeypatch):
        import cardioprior.trainer as trainer_mod

        made = []

        class CountingPool(trainer_mod.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        featurized_on = []
        featurize = trainer_mod.featurize

        def recording(*args, **kwargs):
            featurized_on.append(threading.current_thread() is threading.main_thread())
            return featurize(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setattr(trainer_mod, "featurize", recording)
        cases = tiny_cases(3)
        model = init_model(feature_names(False))
        for jobs, want in ((1, []), (2, [2])):
            made.clear()
            featurized_on.clear()
            cfg = TrainConfig(epochs=4, loss=LossConfig(weights=BASELINE_ONLY), jobs=jobs)
            train(model, cases, cfg)
            assert made == want
            # with a pool, the cases are featurized on its threads
            assert featurized_on == [jobs == 1] * 3

    def test_checks_the_model_before_featurizing(self, monkeypatch):
        import cardioprior.trainer as trainer_mod

        calls = []
        monkeypatch.setattr(trainer_mod, "featurize", lambda *a: calls.append(a))
        cases = tiny_cases(2)
        loss = LossConfig(weights=BASELINE_ONLY)
        with pytest.raises(ArityMismatch):  # an atlas-feature model, no atlas
            train(init_model(feature_names(True)), cases, TrainConfig(epochs=1, loss=loss))
        with pytest.raises(InvalidParameter, match="atlas"):
            train(init_model(feature_names(False), aux=True), cases,
                  TrainConfig(epochs=1, loss=loss))
        with pytest.raises(ArityMismatch):
            predict(init_model(feature_names(True)), cases[0][0])
        assert calls == []

    def test_baseline_trace_strictly_decreasing_early(self):
        spec = PhantomSpec(jitter=Jitter.none())
        cases = [generate(spec, i) for i in range(10)]
        model = init_model(feature_names(False))
        cfg = TrainConfig(epochs=21, loss=LossConfig(weights=BASELINE_ONLY))
        _, trace = train(model, cases, cfg)
        totals = [row["total"] for row in trace]
        assert len(totals) == 21
        for a, b in zip(totals, totals[1:]):
            assert b < a

    def test_nonfinite_loss_names_epoch(self):
        (image, labels), = tiny_cases(1)
        bad = Volume3(image.data.copy(), image.spacing, image.offset)
        bad.data[0, 0, 0] = np.inf
        cfg = TrainConfig(epochs=2, loss=LossConfig(weights=BASELINE_ONLY))
        with np.errstate(invalid="ignore"), pytest.raises(NonfiniteLoss, match="epoch 0"):
            train(init_model(feature_names(False)), [(bad, labels)], cfg)

    def test_grid_mismatch_between_cases(self):
        (a_img, a_lab), = tiny_cases(1)
        spec = PhantomSpec(grid=FovSpec((26, 26, 26), 4.0))
        b_img, b_lab = generate(spec, 0)
        cfg = TrainConfig(epochs=1, loss=LossConfig(weights=BASELINE_ONLY))
        with pytest.raises(GridMismatch):
            train(init_model(feature_names(False)), [(a_img, a_lab), (b_img, b_lab)], cfg)

    def test_volume_regularizer_pulls_volumes_toward_mean(self, phantom_case):
        image, labels = phantom_case
        n_vox = float(np.prod(labels.dims))
        v_init = n_vox * labels.voxel_volume / N_CLASSES  # uniform model volume
        mu = np.full(N_CLASSES, 0.85 * v_init)
        sigma = np.full(N_CLASSES, 0.15 * v_init)
        stats = ShapeStats(
            volume_mean=mu, volume_std=sigma,
            centroid_mean=np.zeros((N_CLASSES, 3)),
            second_moment_mean=np.zeros((N_CLASSES, 3, 3)),
            class_n=np.ones(N_CLASSES, dtype=np.int64),
            pair_mean=np.full(len(PAIRS), np.nan), pair_std=np.full(len(PAIRS), np.nan),
            pair_n=np.zeros(len(PAIRS), dtype=np.int64),
            triple_mean=np.full(len(TRIPLES), np.nan), triple_std=np.full(len(TRIPLES), np.nan),
            triple_n=np.zeros(len(TRIPLES), dtype=np.int64), n_cases=2,
        )
        weights = dict(BASELINE_ONLY, gdice=0.0, ce=0.0, volume=1.0)
        model = init_model(feature_names(False))
        gaps = []
        for _ in range(10):
            cfg = TrainConfig(step_size=1e-3, epochs=1,
                              loss=LossConfig(weights=weights, stats=stats))
            model, _ = train(model, [(image, labels)], cfg)
            p = predict(model, image)
            gaps.append([abs(soft_volume(p, c) - mu[c]) for c in range(1, N_CLASSES)])
        for prev, cur in zip(gaps, gaps[1:]):
            for g_prev, g_cur in zip(prev, cur):
                assert g_cur <= g_prev + 1e-9


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("epochs", 2.5), ("epochs", True), ("epochs", "3"), ("jobs", 1.5), ("jobs", False),
        ("step_size", "0.5"), ("step_size", None), ("aux_weight", "0"), ("aux_weight", [0.5]),
    ])
    def test_rejects_fractional_counts_and_non_numeric_rates(self, field, value):
        with pytest.raises(InvalidParameter, match=field):
            TrainConfig(**{field: value})

    def test_accepts_numpy_numbers(self):
        cfg = TrainConfig(epochs=np.int64(3), jobs=np.int32(2), step_size=np.float32(0.25),
                          aux_weight=1)
        assert (cfg.epochs, cfg.jobs) == (3, 2)


@pytest.fixture(scope="module")
def phantom_trio():
    """Three default 48^3 phantoms: the first one's features with the atlas and its
    labels, the atlas as the aux target, and the three cases' stats."""
    spec = PhantomSpec()
    cases = [generate(spec, k) for k in range(3)]
    labels = [lab for _, lab in cases]
    atlas = build_atlas(labels, spec.grid)
    stats = aggregate([case_descriptor(one_hot(lab)) for lab in labels])
    flats, aux_target = _flat_inputs(cases[:1], atlas)
    return flats[0], labels[0], aux_target, stats


class TestTiledObjective:
    """The tiled case objective against the whole-grid dense oracle.

    48^3 voxels are 13 full tiles and a 4096-voxel tail. The oracle shares
    no code with the tiles: whole-grid softmax, per-voxel formulas for
    every term, the Jacobian as one expression.
    """

    @pytest.mark.parametrize("config, aux", [(c, False) for c in EXPERIMENT_WEIGHTS]
                             + [("volume", True)],
                             ids=[*EXPERIMENT_WEIGHTS, "volume+aux"])
    @pytest.mark.parametrize("init", ["zero", "random"])
    def test_matches_untiled_oracle(self, phantom_trio, config, aux, init):
        flat, labels, aux_target, stats = phantom_trio
        assert divmod(flat.shape[1], TILE_VOXELS) == (13, 4096)
        rng = np.random.default_rng(5)
        shape = (N_CLASSES, flat.shape[0])
        W = np.zeros(shape) if init == "zero" else 0.1 * rng.standard_normal(shape)
        W_aux = (np.zeros(shape) if init == "zero" else 0.1 * rng.standard_normal(shape)) \
            if aux else None
        cfg = TrainConfig(loss=LossConfig(weights=experiment_weights(config), stats=stats),
                          aux_weight=0.5 if aux else 0.0)
        value, terms, grad_w, grad_aux = _case_eval(W, W_aux, flat, labels, cfg, aux_target,
                                                    True)
        want_value, want_terms, want_w, want_aux = untiled_case_objective(
            W, flat, labels, cfg.loss.weights, stats, W_aux, cfg.aux_weight, aux_target)
        assert value == pytest.approx(want_value, rel=1e-12, abs=0.0)
        assert list(terms) == list(want_terms)
        for key, want in want_terms.items():
            assert terms[key] == pytest.approx(want, rel=1e-12, abs=0.0), key
        assert np.abs(grad_w - want_w).max() <= 1e-12 * np.abs(want_w).max()
        if aux:
            assert np.abs(grad_aux - want_aux).max() <= 1e-12 * np.abs(want_aux).max()
        # the value-only call runs the same first pass
        assert _case_eval(W, W_aux, flat, labels, cfg, aux_target, False)[:2] == (value, terms)

    def test_gradient_checks_across_tiles(self, monkeypatch):
        import cardioprior.losses as losses_mod

        tiles = []
        softmax = losses_mod._softmax

        def counting(z, out, axis=-2):
            # a tile (8, m) or a stack of tiles (B, 8, m), counted by its
            # voxels; the public softmax takes whole grids, on axis 0
            if axis == -2:
                tiles.append(z.shape[-1])
            return softmax(z, out, axis)

        monkeypatch.setattr(losses_mod, "TILE_VOXELS", 64)
        monkeypatch.setattr(losses_mod, "_softmax", counting)
        # 5^3 voxels are a full tile and a 61-voxel one
        report = losses_mod.gradcheck("total", size=5, seed=0)
        assert tiles[:3] == [64, 61, 64]
        assert report["max_rel_err"] < 1e-6
        # 8^3 voxels are 8 tiles
        tiles.clear()
        report = weight_gradcheck(seed=0)
        assert tiles.count(64) % 8 == 0 and tiles.count(64) >= 8
        assert report["max_rel_err"] < 1e-6


class TestExperimentWeights:
    def test_baseline_config(self):
        w = experiment_weights("baseline")
        assert w["gdice"] == 1.0 and w["ce"] == 1.0
        assert all(w[k] == 0.0 for k in BASELINE_ONLY)

    def test_regularized_configs_enable_their_term(self):
        assert experiment_weights("volume")["volume"] > 0.0
        assert experiment_weights("moment")["moment_centroid"] > 0.0
        assert experiment_weights("relation")["relation_dist"] > 0.0

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError):
            experiment_weights("boundary")


class TestSerialization:
    def test_model_round_trip(self, tmp_path, rng):
        names = feature_names(True)
        model = init_model(names, aux=True)
        model = type(model)(
            rng.standard_normal((N_CLASSES, len(names))),
            names,
            rng.standard_normal((N_CLASSES, len(names))),
        )
        save_model(model, tmp_path / "m.json")
        assert "standardize" not in json.loads((tmp_path / "m.json").read_text())
        back = load_model(tmp_path / "m.json")
        assert back.feature_names == names
        np.testing.assert_array_equal(back.weights, model.weights)
        np.testing.assert_array_equal(back.aux_weights, model.aux_weights)

    @pytest.mark.parametrize("content, error", [
        (None, IoFailure),
        (b"{not json", InvalidModel),
        (b'{"schema": "micro-model/0"}', InvalidModel),
        (b'{"schema": "micro-model/1"}', InvalidModel),
    ])
    def test_unreadable_model_is_typed_error(self, tmp_path, content, error):
        path = tmp_path / "m.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(error):
            load_model(path)

    @pytest.mark.parametrize("standardize", [True, False])
    def test_older_standardize_key(self, tmp_path, standardize):
        names = feature_names(False)
        save_model(init_model(names), tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        (tmp_path / "m.json").write_text(json.dumps({**doc, "standardize": standardize}))
        if standardize:
            assert load_model(tmp_path / "m.json").feature_names == names
        else:
            with pytest.raises(InvalidModel, match="unstandardized"):
                load_model(tmp_path / "m.json")

    def test_trace_csv_layout(self, tmp_path):
        trace = [
            {"epoch": 0.0, "total": 1.5, "ce": 1.0, "gdice": 0.5},
            {"epoch": 1.0, "total": 1.2, "ce": 0.8, "gdice": 0.4},
        ]
        save_trace_csv(trace, tmp_path / "trace.csv")
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "epoch,total,ce,gdice"
        assert lines[1].startswith("0,1.5")
        assert len(lines) == 3


class TestWeightGradcheck:
    def test_end_to_end_weight_gradient(self):
        report = weight_gradcheck(seed=0)
        assert report["max_rel_err"] < 1e-6

    @pytest.mark.parametrize("seed", range(9))
    def test_reused_main_head_gives_the_same_report(self, seed):
        # seeds 1, 3, 6, 7 and 8 fail the 1e-6 gate (see ROADMAP.md); their
        # reports must still be the same
        assert weight_gradcheck(seed=seed) == unmemoised_weight_gradcheck(seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stacks_equal_per_entry_evaluations_across_tiles(self, monkeypatch, seed):
        import cardioprior.losses as losses_mod
        import cardioprior.trainer as trainer

        # 8^3 voxels are 8 tiles in both heads; the stacked aux sums add up
        # tile by tile, as the tiled single evaluation does
        monkeypatch.setattr(losses_mod, "TILE_VOXELS", 64)
        monkeypatch.setattr(trainer, "TILE_VOXELS", 64)
        assert weight_gradcheck(seed=seed) == unmemoised_weight_gradcheck(seed, tiled_aux=True)

    @pytest.mark.parametrize("tile", [None, 64], ids=["one_tile", "tiles_of_64"])
    def test_stacked_heads_keep_each_copys_bits(self, monkeypatch, tile):
        import cardioprior.losses as losses_mod
        import cardioprior.trainer as trainer

        if tile:
            monkeypatch.setattr(losses_mod, "TILE_VOXELS", tile)
            monkeypatch.setattr(trainer, "TILE_VOXELS", tile)
        W, W_aux, flats, labels, cfg, aux_target = _weight_check_fixture(0)
        jitter = 1e-3 * np.random.default_rng(3).standard_normal((5,) + W.shape)
        names = losses_mod._enabled(cfg.loss)
        for flat, lab in zip(flats, labels):
            _, terms, _ = losses_mod._objective(
                names, cfg.loss.weights, cfg.loss.stats, lab, lab.data.reshape(-1),
                need_grad=False, weights=W + jitter, features=flat)
            aux = _aux_eval(W_aux + jitter, flat, cfg, aux_target, False)[0]
            for b in range(len(jitter)):
                one = total_loss(W + jitter[b], lab, cfg.loss, need_grad=False, features=flat)
                assert [t[b] for t in terms.values()] == list(one.terms.values())
                assert aux[b] == _aux_eval(W_aux + jitter[b], flat, cfg, aux_target, False)[0]

    def test_main_head_runs_once_per_distinct_weights(self, monkeypatch):
        import cardioprior.losses as losses_mod
        import cardioprior.trainer as trainer

        # (need_grad, copies evaluated) of every call, per head
        calls = {"main": [], "aux": []}
        objective, aux_eval = losses_mod._objective, trainer._aux_eval

        def counted_objective(*args, **kwargs):
            calls["main"].append((kwargs["need_grad"], math.prod(kwargs["weights"].shape[:-2])))
            return objective(*args, **kwargs)

        def counted_aux_eval(W_aux, *args):
            calls["aux"].append((args[-1], math.prod(W_aux.shape[:-2])))
            return aux_eval(W_aux, *args)

        monkeypatch.setattr(losses_mod, "_objective", counted_objective)
        monkeypatch.setattr(trainer, "_objective", counted_objective)
        monkeypatch.setattr(trainer, "_aux_eval", counted_aux_eval)
        report = weight_gradcheck(seed=0)
        n_head = report["n_entries"] // 2
        for head, counted in calls.items():
            # the analytic pass, and the unmoved weights value-only, once per case
            assert [n for need_grad, n in counted if need_grad] == [1, 1], head
            assert [n for need_grad, n in counted if not need_grad].count(1) == 2, head
            # per case, two copies per entry of the head, in stacks of 8 entries
            stacks = [n for need_grad, n in counted if not need_grad and n > 1]
            assert sum(stacks) == 2 * 2 * n_head and max(stacks) == 16, head

    @pytest.mark.parametrize("head", ["main", "aux"])
    def test_planted_error_fails_the_gate(self, monkeypatch, head):
        import cardioprior.trainer as trainer

        exact = trainer._case_eval
        planted = []

        def off_by_1e4(*args):
            value, terms, grad, grad_aux = exact(*args)
            if args[-1]:
                grads = {"main": grad.copy(), "aux": grad_aux.copy()}
                wrong = grads[head]
                if not planted:  # the first case's largest entry, in both cases
                    planted.append(np.unravel_index(np.argmax(np.abs(wrong)), wrong.shape))
                wrong[planted[0]] *= 1.0 + 1e-4
                grad, grad_aux = grads["main"], grads["aux"]
            return value, terms, grad, grad_aux

        monkeypatch.setattr(trainer, "_case_eval", off_by_1e4)
        report = weight_gradcheck(seed=0)
        assert report["max_rel_err"] >= 1e-6
        assert report["argmax"] == [head, *[int(i) for i in planted[0]]]

    def test_chunk_stays_inside_its_memory_budget(self):
        from cardioprior.losses import FD_CHUNK_BYTES

        _, _, flats, _, _, aux_target = _weight_check_fixture(0)
        fixture = sum(f.nbytes for f in flats) + aux_target.nbytes
        weight_gradcheck(seed=0)  # caches warmed outside the trace
        # a chunk's stack makes FD_CHUNK_BYTES of probabilities in the main
        # head, and as much of residuals and of their squares in the aux head
        peak = TestWholeGridOracles._peak_bytes(weight_gradcheck, 0)
        assert peak <= 4 * FD_CHUNK_BYTES + fixture

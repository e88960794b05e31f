"""Minimal differentiable per-voxel segmenter with hand-derived gradients.

The model is a per-voxel affine map from a small feature vector (intensity,
two box-smoothed intensities, normalized coordinates, optional atlas
heatmap channels, bias) to 8 logits, trained by full-batch gradient
descent under any LossConfig. An optional auxiliary head regresses the
atlas heatmaps with mean-squared error from the same features, mirroring a
two-decoder design at desk scale. Everything stays in Float64 and every
gradient is testable against finite differences.

Every per-voxel pass runs over voxel tiles of ``losses.TILE_VOXELS`` or
writes into one buffer. ``featurize`` fills one preallocated stack, and
takes the intensity's mean and std from a copy in the image's own memory
order (a sum adds in memory order). One case-epoch is one ``total_loss``
call over the weights and the case's features: the logits and their
gradient are made tile by tile and never exist as whole grids, the
probabilities are kept tile-major for the gradient pass, and the weight
gradient is summed over the tiles. The auxiliary head's residual, squared
sum and gradient are made tile by tile in the same way, and ``predict``
writes each tile's softmax straight into the probability volume. The tile
size is fixed, so the result does not depend on ``jobs``, which only
spreads cases (their featurization included) over threads.

Weight initialization is zeros (uniform prediction), which removes
initialization randomness from comparisons between loss configurations.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from ._version import __version__
from .align import HeatmapAtlas
from .errors import (
    ArityMismatch,
    GridMismatch,
    InvalidModel,
    InvalidParameter,
    NonfiniteLoss,
    int_parameter,
)
from .losses import (
    TILE_VOXELS, WEIGHT_KEYS, LossConfig, _central_differences, _fixture_stats, _seed_and_step,
    _softmax, softmax, total_loss,
)
from .phantom import BASE_INTENSITY
from .preprocess import FovSpec
from .stats import case_descriptor
from .volume import (
    CLASS_NAMES, N_CLASSES, ProbVolume, Volume3, json_fields, one_hot, read_json, write_file,
    write_json,
)

#: Pinned descent step, calibrated on the 48-cube phantom fixture so the
#: baseline trace decreases strictly over its first 20 epochs and the
#: trajectory stays out of the oscillatory regime that starts near 1.0.
DEFAULT_STEP_SIZE = 0.5
DEFAULT_EPOCHS = 200

_BASE_FEATURES = ("intensity", "box_mean_r1", "box_mean_r2", "coord_x", "coord_y", "coord_z")
_ATLAS_FEATURES = tuple(f"atlas_{name}" for name in CLASS_NAMES)

#: Calibrated loss weights for the four named phantom-experiment configs.
#: The regularizers integrate over voxels while gdice/ce normalize by voxel
#: count, so their raw gradients run 1e5-1e6 times the baseline's at the
#: uniform init; the weights below bring each term's gradient to a stable
#: fraction of the baseline's along the whole trajectory. The angle term
#: gets a token weight only: triple cosines are invariant under the
#: phantom's rigid jitter, so their population stds are degenerate (1e-6)
#: and any effective weight destabilizes early training.
EXPERIMENT_WEIGHTS: dict[str, dict[str, float]] = {
    "baseline": {},
    "volume": {"volume": 1e-5},
    "moment": {"moment_centroid": 3e-7, "moment_second": 3e-7},
    "relation": {"relation_dist": 1e-5, "relation_angle": 1e-13},
}


def experiment_weights(config: str) -> dict[str, float]:
    """Full weight map for one of the named configs (baseline terms at 1)."""
    if config not in EXPERIMENT_WEIGHTS:
        raise ValueError(f"unknown experiment config {config!r}; have {sorted(EXPERIMENT_WEIGHTS)}")
    weights = dict.fromkeys(WEIGHT_KEYS, 0.0)
    weights["gdice"] = weights["ce"] = 1.0
    weights.update(EXPERIMENT_WEIGHTS[config])
    return weights


@dataclass(frozen=True)
class FeatureStack:
    """Per-voxel features, shape (n_features, nx, ny, nz), fixed name order."""

    data: np.ndarray
    names: tuple[str, ...]
    spacing: tuple[float, float, float]
    offset: tuple[float, float, float]

    def __post_init__(self) -> None:
        d = np.asarray(self.data, dtype=np.float64)
        if d.ndim != 4 or d.shape[0] != len(self.names):
            raise ValueError(f"feature stack shape {d.shape} does not match names")
        object.__setattr__(self, "data", d)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape[1:]


def feature_names(with_atlas: bool) -> tuple[str, ...]:
    base = _BASE_FEATURES + (_ATLAS_FEATURES if with_atlas else ())
    return base + ("bias",)


def featurize(image: Volume3, atlas: HeatmapAtlas | None = None) -> FeatureStack:
    """Deterministic feature stack for one image.

    The intensity is z-scored per case, and its box-smoothed copies are
    taken of the z-scored image; a constant image gives 0. Box smoothing
    uses reflective boundaries; coordinates are 2i/(n-1) - 1 per axis (0 at
    the grid center). With an atlas, the image must already live on the
    atlas reference grid, checked before any work, and the 8 heatmap values
    at each voxel become features verbatim.

    Every feature is written into one preallocated stack. The mean and std
    are reduced over the float64 copy of the image in the memory order of
    ``image.data`` (Fortran order for a volume read from disk): a sum adds
    in memory order, so z-scoring a C-ordered copy would move their last
    bits, and with them every trained weight.
    """
    from scipy import ndimage  # here, so that importing the package loads no scipy

    if atlas is not None:
        ref = atlas.reference_grid
        if (
            image.dims != ref.grid_size
            or not np.allclose(image.spacing, ref.spacing, rtol=0.0, atol=1e-9)
            or not np.allclose(image.offset, ref.origin_centered_offset(), rtol=0.0, atol=1e-9)
        ):
            raise GridMismatch("image does not live on the atlas reference grid")
    names = feature_names(atlas is not None)
    out = np.empty((len(names),) + image.dims)
    img = image.data.astype(np.float64)
    np.subtract(img, float(img.mean()), out=out[0])
    out[0] /= max(float(img.std()), 1e-12)
    ndimage.uniform_filter(out[0], size=3, output=out[1], mode="reflect")
    ndimage.uniform_filter(out[0], size=5, output=out[2], mode="reflect")
    for a in range(3):
        n = image.dims[a]
        shape = [1, 1, 1]
        shape[a] = n
        out[3 + a] = (np.zeros(n) if n == 1 else 2.0 * np.arange(n) / (n - 1) - 1.0).reshape(shape)
    if atlas is not None:
        out[6:6 + N_CLASSES] = atlas.heatmaps
    out[-1] = 1.0
    return FeatureStack(out, names, image.spacing, image.offset)


@dataclass(frozen=True)
class MicroModel:
    """Affine per-voxel classifier; optional auxiliary heatmap-regression head."""

    weights: np.ndarray  # (8, n_features)
    feature_names: tuple[str, ...]
    aux_weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        W = np.asarray(self.weights, dtype=np.float64)
        if W.ndim != 2 or W.shape != (N_CLASSES, len(self.feature_names)):
            raise ValueError(f"weights shape {W.shape} does not match the feature list")
        if not np.isfinite(W).all():
            raise ValueError("weights must be finite")
        object.__setattr__(self, "weights", W)
        if self.aux_weights is not None:
            A = np.asarray(self.aux_weights, dtype=np.float64)
            if A.shape != W.shape or not np.isfinite(A).all():
                raise ValueError("aux_weights must match the main head shape and be finite")
            object.__setattr__(self, "aux_weights", A)


def init_model(names: tuple[str, ...], aux: bool = False) -> MicroModel:
    zeros = np.zeros((N_CLASSES, len(names)))
    return MicroModel(zeros, tuple(names), zeros.copy() if aux else None)


def _require_arity(model: MicroModel, n_features: int) -> None:
    if n_features != model.weights.shape[1]:
        raise ArityMismatch(f"model expects {model.weights.shape[1]} features, got {n_features}")


def forward(
    model: MicroModel, features: FeatureStack
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-voxel logits (8, nx, ny, nz) and aux outputs when the head exists."""
    _require_arity(model, features.data.shape[0])
    flat = features.data.reshape(features.data.shape[0], -1)
    logits = (model.weights @ flat).reshape((N_CLASSES,) + features.dims)
    aux = None
    if model.aux_weights is not None:
        aux = (model.aux_weights @ flat).reshape((N_CLASSES,) + features.dims)
    return logits, aux


@dataclass(frozen=True)
class TrainConfig:
    step_size: float = DEFAULT_STEP_SIZE
    epochs: int = DEFAULT_EPOCHS
    loss: LossConfig = field(default_factory=LossConfig)
    aux_weight: float = 0.0
    atlas: HeatmapAtlas | None = None
    jobs: int = 1

    def __post_init__(self) -> None:
        for name in ("epochs", "jobs"):
            int_parameter(getattr(self, name), name)
        for name in ("step_size", "aux_weight"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float, np.integer,
                                                                 np.floating)):
                raise InvalidParameter(f"{name} must be a number, got {value!r}")
        if not (np.isfinite(self.step_size) and self.step_size >= 0.0):
            raise InvalidParameter(f"step_size must be finite and >= 0, got {self.step_size}")
        if self.epochs < 0:
            raise InvalidParameter(f"epochs must be >= 0, got {self.epochs}")
        if not (np.isfinite(self.aux_weight) and self.aux_weight >= 0.0):
            raise InvalidParameter(f"aux_weight must be finite and >= 0, got {self.aux_weight}")
        if self.jobs < 1:
            raise InvalidParameter(f"jobs must be >= 1, got {self.jobs}")


def _flat_inputs(cases: list[tuple[Volume3, Volume3]], atlas: HeatmapAtlas | None,
                 mapper=map):
    """Each case's features as (n_features, n_voxels), and the atlas as the aux target.

    ``mapper`` runs the featurization, in case order: ``map``, or a pool's ``map``.
    """
    def flat(case):
        data = featurize(case[0], atlas).data
        return data.reshape(data.shape[0], -1)

    flats = list(mapper(flat, cases))
    return flats, None if atlas is None else atlas.heatmaps.reshape(N_CLASSES, -1)


def _aux_eval(W_aux, flat, cfg: TrainConfig, aux_target, need_grad):
    """The auxiliary head's weighted MSE term and its weight gradient (None value-only).

    One pass over tiles of TILE_VOXELS with one (8, tile) scratch for the
    residual W_aux @ F - target; the squared sum and the gradient sum add
    up tile by tile. A grid of one tile runs the whole-grid operations, so
    its bits are those of ``(r * r).mean()`` and ``r @ F.T``.
    """
    n = flat.shape[1]
    tile = min(TILE_VOXELS, n)
    scratch = np.empty(N_CLASSES * tile)
    for s in range(0, n, tile):
        e = min(s + tile, n)
        r = scratch[:N_CLASSES * (e - s)].reshape(N_CLASSES, e - s)
        np.matmul(W_aux, flat[:, s:e], out=r)
        r -= aux_target[:, s:e]
        part = float((r * r).sum())
        squares = part if s == 0 else squares + part
        if need_grad:
            part = r @ flat[:, s:e].T
            grad = part if s == 0 else grad + part
    size = N_CLASSES * n
    term = cfg.aux_weight * (squares / size)
    return term, (2.0 * cfg.aux_weight / size) * grad if need_grad else None


def _case_eval(W, W_aux, flat, g, cfg: TrainConfig, aux_target, need_grad):
    """Objective value, per-term map, and weight gradients for one case.

    The main head is one ``total_loss`` call over the weights and the
    features; the auxiliary head is one ``_aux_eval`` pass. Both run over
    voxel tiles of TILE_VOXELS.
    """
    ev = total_loss(W, g, cfg.loss, need_grad=need_grad, features=flat)
    value = ev.value
    terms = dict(ev.terms)
    grad_aux = None
    if W_aux is not None:
        aux_term, grad_aux = _aux_eval(W_aux, flat, cfg, aux_target, need_grad)
        value += aux_term
        terms["aux_mse"] = aux_term
    return value, terms, ev.grad, grad_aux


def train(
    model: MicroModel, cases: list[tuple[Volume3, Volume3]], cfg: TrainConfig
) -> tuple[MicroModel, list[dict[str, float]]]:
    """Full-batch gradient descent over (image, gt labels) cases.

    Per epoch the mean of d(total_loss + aux_weight * aux_mse)/dW over the
    cases is accumulated in fixed case order, the epoch objective is
    recorded (before the update, so epoch 0 shows the initial weights),
    and a plain descent step is applied. Raises NonfiniteLoss naming the
    first epoch whose objective, or the last epoch whose step, is not
    finite. Deterministic for fixed (data, config) regardless of cfg.jobs.
    """
    if not cases:
        raise ValueError("need at least one training case")
    dims = cases[0][0].dims
    for img, lab in cases:
        if img.dims != dims or lab.dims != dims:
            raise GridMismatch("all training cases must share one grid")
    _require_arity(model, len(feature_names(cfg.atlas is not None)))
    if model.aux_weights is not None and cfg.atlas is None:
        raise InvalidParameter("auxiliary head requires an atlas to regress")

    W = model.weights.copy()
    W_aux = model.aux_weights.copy() if model.aux_weights is not None else None
    n = len(cases)
    trace: list[dict[str, float]] = []
    pool = ThreadPoolExecutor(max_workers=cfg.jobs) if cfg.jobs > 1 else None
    with pool or nullcontext():
        flats, aux_target = _flat_inputs(cases, cfg.atlas, pool.map if pool else map)
        for epoch in range(cfg.epochs):
            def run(i: int):
                return _case_eval(W, W_aux, flats[i], cases[i][1], cfg, aux_target, True)

            results = list(pool.map(run, range(n)) if pool else map(run, range(n)))

            total = sum(r[0] for r in results) / n
            if not np.isfinite(total):
                raise NonfiniteLoss(f"objective became non-finite at epoch {epoch}")
            row = {"epoch": float(epoch), "total": total}
            for key in results[0][1]:
                row[key] = sum(r[1][key] for r in results) / n
            trace.append(row)

            grad_w = sum(r[2] for r in results) / n
            W = W - cfg.step_size * grad_w
            if W_aux is not None:
                grad_aux = sum(r[3] for r in results) / n
                W_aux = W_aux - cfg.step_size * grad_aux
    if not (np.isfinite(W).all() and (W_aux is None or np.isfinite(W_aux).all())):
        raise NonfiniteLoss(f"weights became non-finite in the step of epoch {cfg.epochs - 1}")
    trained = replace(model, weights=W, aux_weights=W_aux)
    return trained, trace


def predict(model: MicroModel, image: Volume3, atlas: HeatmapAtlas | None = None) -> ProbVolume:
    """Softmax class probabilities of the main head for one image.

    The logits and their softmax are made over voxel tiles of TILE_VOXELS,
    each written straight into the probability buffer; per voxel these are
    the operations of ``softmax(forward(...)[0])``, so the bits are the same.
    """
    _require_arity(model, len(feature_names(atlas is not None)))
    feats = featurize(image, atlas)
    flat = feats.data.reshape(feats.data.shape[0], -1)
    n = flat.shape[1]
    probs = np.empty((N_CLASSES, n))
    for s in range(0, n, TILE_VOXELS):
        P = probs[:, s:s + TILE_VOXELS]
        _softmax(np.matmul(model.weights, flat[:, s:s + TILE_VOXELS], out=P), P)
    return ProbVolume(probs.reshape((N_CLASSES,) + image.dims), image.spacing, image.offset)


# ---------------------------------------------------------------------------
# Serialization


def save_model(model: MicroModel, path: str | os.PathLike, training: dict | None = None) -> None:
    doc = {
        "schema": "micro-model/1",
        "version": __version__,
        "feature_names": list(model.feature_names),
        "weights": model.weights.tolist(),
        "aux_weights": None if model.aux_weights is None else model.aux_weights.tolist(),
        "training": training or {},
    }
    write_json(path, doc)


def load_model(path: str | os.PathLike) -> MicroModel:
    doc = read_json(path, "micro-model/1", InvalidModel)
    if doc.get("standardize", True) is not True:  # older files could switch it off
        raise InvalidModel(f"{path}: weights fit to unstandardized features cannot be applied")
    with json_fields(path, InvalidModel):
        aux = doc["aux_weights"]
        return MicroModel(
            np.asarray(doc["weights"], dtype=np.float64),
            tuple(doc["feature_names"]),
            None if aux is None else np.asarray(aux, dtype=np.float64),
        )


def save_trace_csv(trace: list[dict[str, float]], path: str | os.PathLike) -> None:
    """trace.csv with epoch, total, then the per-term columns sorted by name."""
    keys = sorted(k for k in (trace[0] if trace else {}) if k not in ("epoch", "total"))
    lines = [",".join(["epoch", "total"] + keys)]
    for row in trace:
        lines.append(",".join([str(int(row["epoch"]))] + [repr(row[k]) for k in ["total"] + keys]))
    write_file(path, ("\n".join(lines) + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------
# Weight-space finite-difference verification


def _weight_check_fixture(seed: int):
    """The 2-case 8-cube fixture of ``weight_gradcheck``.

    Returns the weights W and W_aux, each case's flat features and labels,
    the TrainConfig and the aux target.
    """
    rng = np.random.default_rng(seed)
    grid = FovSpec((8, 8, 8), 2.0)
    offset = grid.origin_centered_offset()
    cases = []
    for _ in range(2):
        labels = Volume3(
            rng.integers(0, N_CLASSES, grid.grid_size).astype(np.uint8), grid.spacing, offset
        )
        image = Volume3(
            (np.asarray(BASE_INTENSITY)[labels.data]
             + 20.0 * rng.standard_normal(grid.grid_size)).astype(np.float32),
            grid.spacing,
            offset,
        )
        cases.append((image, labels))
    heat = (one_hot(cases[0][1]).data + one_hot(cases[1][1]).data) / 2.0
    atlas = HeatmapAtlas(reference_grid=grid, heatmaps=heat, case_count=2)

    names = feature_names(with_atlas=True)
    W = 0.1 * rng.standard_normal((N_CLASSES, len(names)))
    W_aux = 0.1 * rng.standard_normal((N_CLASSES, len(names)))
    flats, aux_target = _flat_inputs(cases, atlas)
    dims = grid.grid_size

    # Aggregating stats from two near-identical random cases yields
    # accidentally tiny population stds, inflating the objective by orders
    # of magnitude; the FD quotient then carries roundoff eps*|L|/(2h) that
    # swamps small-gradient entries. Derive the stats from the model's own
    # soft descriptors instead, centered between the two cases with fixed
    # offsets and generous stds, so every z stays O(1) and the objective
    # stays small enough that roundoff clears the 1e-6 gate with margin.
    descs = [
        case_descriptor(
            ProbVolume(softmax((W @ f).reshape((N_CLASSES,) + dims)), grid.spacing, offset)
        )
        for f in flats
    ]
    mid_vol = 0.5 * (descs[0].soft_volume + descs[1].soft_volume)
    mid_cent = 0.5 * (descs[0].soft_centroid + descs[1].soft_centroid)
    mid_mom = 0.5 * (descs[0].second_moment + descs[1].second_moment)
    sign = np.where(np.arange(N_CLASSES) % 2 == 0, 1.0, -1.0)
    stats = _fixture_stats(
        mid_vol * (1.0 + 0.2 * sign), 0.5 * mid_vol,
        mid_cent + np.outer(sign, (0.25, -0.2, 0.15)),
        mid_mom * (1.0 + 0.01 * sign)[:, None, None],
        0.5 * (descs[0].pair_distance + descs[1].pair_distance) + 0.04, 1.5,
        0.5 * (descs[0].triple_cosine + descs[1].triple_cosine) + 0.02, 2.0,
    )
    cfg = TrainConfig(loss=LossConfig(stats=stats), aux_weight=0.5, atlas=atlas, epochs=1)
    return W, W_aux, flats, [lab for _, lab in cases], cfg, aux_target


def weight_gradcheck(seed: int = 0, step: float = 1e-5) -> dict:
    """FD check of the full training objective on a 2-case 8-cube fixture.

    The fixture enables every loss component plus the auxiliary head, with
    random nonzero weights so no gradient path sits at a symmetric point.
    The central difference is taken term by term (each ``terms`` entry of
    each case, aux_mse included) and then summed. Relative error uses
    denominator max(|analytic|, |fd|, 1e-8), as in ``losses.gradcheck``.

    The main head's terms depend on W alone, and W keeps its bytes while
    the entries of W_aux are stepped, so they are evaluated again only
    when W's bytes change; the aux term is evaluated every time. Every
    term enters the difference as if both heads ran on every evaluation.
    """
    seed = _seed_and_step(seed, step)
    W, W_aux, flats, labels, cfg, aux_target = _weight_check_fixture(seed)
    analytic = sum(
        np.concatenate([r[2].ravel(), r[3].ravel()])
        for r in (_case_eval(W, W_aux, flats[i], labels[i], cfg, aux_target, True)
                  for i in range(2))
    ) / 2.0

    main_key, main_terms = None, None

    def terms():
        # The objective is the mean over the 2 cases, so each term enters halved.
        nonlocal main_key, main_terms
        key = W.tobytes()
        if key != main_key:
            main_key = key
            main_terms = [[t / 2.0 for t in total_loss(W, labels[i], cfg.loss, need_grad=False,
                                                       features=flats[i]).terms.values()]
                          for i in range(2)]
        out = []
        for i in range(2):
            out += main_terms[i]
            out.append(_aux_eval(W_aux, flats[i], cfg, aux_target, False)[0] / 2.0)
        return out

    report, worst = _central_differences([W, W_aux], analytic, terms, step)
    head, entry = divmod(worst, W.size)
    where = ["aux" if head else "main"] + [int(i) for i in np.unravel_index(entry, W.shape)]
    return {"seed": seed, **report, "argmax": where}

"""Differentiable segmentation losses with hand-derived gradients.

The baseline objective (Generalized Dice plus Cross-Entropy) and the three
shape-aware regularizers (volume, moment, centroid relations). Every loss
returns a scalar and the analytic gradient with respect to the per-voxel
class probabilities; ``total_loss`` composes enabled terms behind a logits
interface, or over weights and features for training, mapping the
probability gradient back through the softmax Jacobian. ``gradcheck``
verifies any registered loss against central finite differences on a
seeded instance.

The loss maths exists once. Each component is split into the reductions
over the probabilities that it reads (class mass, own-class probability
per class, CE sum, product with the grid basis) and a ``_*_terms``
function that turns them into its value and its gradient constants.
``_objective`` sums the reductions over voxel tiles in one pass and
builds the gradient tile by tile from the constants in a second; the
four probability-interface functions run it on the whole grid as one
tile, ``total_loss`` on tiles of TILE_VOXELS.

Loss functions intentionally do not validate the probability-simplex
invariant: finite-difference probing perturbs single entries off the
simplex and every formula here stays well-defined there. Validation
belongs to ProbVolume.validate at ingestion boundaries.

Weighting convention: each elementary term is scaled by its weight exactly
once, inside the function that computes it; ``total_loss`` sums component
values without re-weighting. A weight of zero disables evaluation of that
component entirely. The ``terms`` map always sums to ``value``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidLossConfig, InvalidParameter, NoUsableStats, NotOneHot, ShapeMismatch, UnknownLoss,
    int_parameter,
)
from .stats import (
    _PAIR_AT,
    PAIRS,
    TRIPLES,
    ShapeStats,
    SoftMoments,
    case_descriptor,
    grid_basis,
    relation_geometry,
)
from .volume import CLASS_NAMES, FOREGROUND_CLASSES, N_CLASSES, ProbVolume, Volume3, read_json

#: Probability floor inside the cross-entropy log.
CE_CLAMP = 1e-12

#: Smoothing term of the Generalized Dice class weights and denominator.
EPSILON_GD = 1e-6

#: Voxels per tile of total_loss. Fixed, so that the order in which the tile
#: sums add up, and with it every output bit, depends on the grid alone and
#: never on --jobs. A tile's probabilities and gradient take 512 KiB each.
TILE_VOXELS = 8192

#: Bytes of the stack of perturbed copies that one batched finite-difference
#: evaluation takes: 32 entries of a 5^3 check, 8 of an 8^3 one. Fixed, and
#: each copy's objective has the bits of a single evaluation, so no report
#: depends on it.
FD_CHUNK_BYTES = 1 << 19

#: Loss components: name -> (module-level function name, its weight keys).
#: total_loss and training run the components inside _objective; the
#: function name serves only the analytic call of gradcheck's per-component
#: checks, which look it up at call time so that a wrapper on the module
#: attribute sees it. Their finite differences call _objective directly.
COMPONENTS: dict[str, tuple[str, tuple[str, ...]]] = {
    "gdice_ce": ("gdice_ce", ("gdice", "ce")),
    "volume": ("volume_loss", ("volume",)),
    "moment": ("moment_loss", ("moment_centroid", "moment_second")),
    "relation": ("relation_loss", ("relation_dist", "relation_angle")),
}

WEIGHT_KEYS = tuple(k for _, keys in COMPONENTS.values() for k in keys)

#: The per-class term names, one per FOREGROUND_CLASSES entry, and the
#: foreground as an (8,) mask: background is never scored.
_VOLUME_TERMS = tuple(f"volume_{CLASS_NAMES[c]}" for c in FOREGROUND_CLASSES)
_CENTROID_TERMS = tuple(f"moment_centroid_{CLASS_NAMES[c]}" for c in FOREGROUND_CLASSES)
_SECOND_TERMS = tuple(f"moment_second_{CLASS_NAMES[c]}" for c in FOREGROUND_CLASSES)
_FOREGROUND = np.arange(N_CLASSES) > 0


def default_weights() -> dict[str, float]:
    return {k: 1.0 for k in WEIGHT_KEYS}


@dataclass(frozen=True)
class LossConfig:
    """Term weights, merged over the all-one defaults.

    ``stats`` is the population reference used by the regularizers; it may
    stay None when only the baseline terms are enabled. A rejected weight
    raises InvalidLossConfig.
    """

    weights: dict[str, float] = field(default_factory=default_weights)
    stats: ShapeStats | None = None

    def __post_init__(self) -> None:
        merged = default_weights()
        for k, v in self.weights.items():
            if k not in merged:
                raise InvalidLossConfig(f"unknown loss weight {k!r}; valid keys: {WEIGHT_KEYS}")
            try:
                w = float(v)
            except (TypeError, ValueError):
                w = np.nan
            if not (np.isfinite(w) and w >= 0.0):
                raise InvalidLossConfig(f"weight {k!r} must be finite and >= 0, got {v!r}")
            merged[k] = w
        if not any(v > 0.0 for v in merged.values()):
            raise InvalidLossConfig("at least one loss weight must be positive")
        object.__setattr__(self, "weights", merged)


_DEFAULT_CONFIG = LossConfig()


@dataclass(frozen=True)
class LossEval:
    """Scalar loss, gradient, and the per-term decomposition.

    ``grad`` has the ProbVolume data shape and is taken with respect to the
    probabilities for the probability-interface losses and with respect to
    the logits for total_loss; for total_loss with ``features`` it is the
    (8, F) gradient with respect to the weights. It is None when evaluated
    value-only.
    The terms always sum to ``value`` (skipped terms appear as 0.0).
    """

    value: float
    grad: np.ndarray | None
    terms: dict[str, float]


def _softmax(z: np.ndarray, out: np.ndarray, axis: int = -2) -> np.ndarray:
    """Softmax over the class axis written to ``out``, which may be ``z`` itself.

    The class axis is the first of a tile (8, m) and the second of a stack
    of tiles (B, 8, m); each item of a stack gets the bits of its own tile.
    """
    np.subtract(z, z.max(axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax over axis 0 (the class axis), in one fresh buffer.

    The same operations as ``e = exp(z - max); e / e.sum(axis=0)``, so the
    result is bit-identical to that formula; ``logits`` is left unchanged.
    """
    z = np.asarray(logits, dtype=np.float64)
    return _softmax(z, np.empty(z.shape), 0)


def _require_labels(g: Volume3) -> None:
    """Ground truth is a uint8 label Volume3; its constructor bounds the ids."""
    if not isinstance(g, Volume3) or g.data.dtype != np.uint8:
        raise NotOneHot("ground truth must be a uint8 label Volume3")


def _require_same_shape(p: ProbVolume, g: Volume3) -> None:
    if p.dims != g.dims:
        raise ShapeMismatch(f"probability grid {p.dims} differs from label grid {g.dims}")


# ---------------------------------------------------------------------------
# The components, each split into its value and gradient constants. The
# reductions over P that they read are summed tile by tile in _objective.
# The values are taken item by item over any leading axes of the
# reductions (a stack of inputs, value only); the gradient constants only
# for a single input.


def _by_class(x):
    """The class columns of ``x`` (..., 8): Python floats for one input, (B,) arrays for a stack."""
    return x.tolist() if x.ndim == 1 else list(x.T)


def _gdice_ce_terms(w, mass, hits, ce_sum, g_sum, n_vox, coef):
    """GDice + CE from the class mass, the per-class sum of each voxel's
    own-class probability and the CE sum.

    With ``coef`` the gradient constants are taken too: the off-label
    constant of every class goes to ``coef[:, 0]``, and the returned (8,)
    array is what class c adds at the voxels labelled c (CE adds its own
    per-voxel part there).
    """
    w_gd, w_ce = w["gdice"], w["ce"]
    w_c = 1.0 / (g_sum + EPSILON_GD) ** 2
    num = (w_c * hits).sum(axis=-1)
    den = (w_c * (mass + g_sum)).sum(axis=-1) + EPSILON_GD
    gdice = 1.0 - 2.0 * num / den
    ce = ce_sum / n_vox
    at_label = None
    if coef is not None:
        # d GDice / d p_c(x) = -2 w_c (g_c(x) den - num) / den^2
        scale = -2.0 * w_gd / den**2
        coef[:, 0] += scale * (w_c * -num)
        at_label = scale * (w_c * den)
    return w_gd * gdice + w_ce * ce, {"gdice": w_gd * gdice, "ce": w_ce * ce}, at_label


def _volume_terms(w, stats, mass, voxel_volume, coef):
    """Squared volume z-scores; the gradient is one constant per class, in ``coef[:, 0]``."""
    w = w["volume"]
    scored = stats.volume_scored.tolist()
    if not any(scored[1:]):
        raise NoUsableStats("volume_loss: every class lacks usable volume statistics")
    # stable key set, skipped classes at 0.0: the trace aggregation relies
    # on every case reporting the same columns
    terms = dict.fromkeys(_VOLUME_TERMS, 0.0)
    value = 0.0
    mass, mean, std = _by_class(mass), stats.volume_mean.tolist(), stats.volume_std.tolist()
    for c, name in zip(FOREGROUND_CLASSES, _VOLUME_TERMS):
        if not scored[c]:
            continue
        sigma = std[c]
        z = (mass[c] * voxel_volume - mean[c]) / sigma
        term = w * z * z
        terms[name] = term
        value += term
        if coef is not None:
            coef[c, 0] += 2.0 * w * z / sigma * voxel_volume
    return value, terms


def _moment_terms(w, stats, mom, coef):
    """Squared moment distances; the gradient of class c is coef[c] on the ten basis rows."""
    w1 = w["moment_centroid"]
    w2 = w["moment_second"]
    if not mom.present.any(axis=-1).all():
        raise NoUsableStats("moment_loss: every class lacks mass or moment statistics")
    dm = mom.centroid - stats.centroid_mean
    dM = mom.second_moment - stats.second_moment_mean
    # every class at once, with the bits of each class's dm @ dm and
    # (dM * dM).sum(); (dm * dm).sum(axis=1) and einsum round differently.
    # An absent class adds 0.0, which leaves the sum's bits as they are.
    t1 = w1 * (dm[..., None, :] @ dm[..., :, None])[..., 0, 0]
    t2 = w2 * (dM * dM).reshape(*dM.shape[:-2], 9).sum(axis=-1)
    t1, t2 = (_by_class(np.where(mom.present, t, 0.0)) for t in (t1, t2))
    present = mom.present.tolist()
    terms: dict[str, float] = {}
    value = 0.0
    for c, centroid_name, second_name in zip(FOREGROUND_CLASSES, _CENTROID_TERMS, _SECOND_TERMS):
        terms[centroid_name] = t1[c]
        terms[second_name] = t2[c]
        value += t1[c] + t2[c]
        if coef is not None and present[c]:
            # with d = u - mu: a dm.d + b (d^T dM d - <dM, M>), expanded in u
            a = 2.0 * w1 / mom.mass[c]
            b = 2.0 * w2 / mom.mass[c]
            mu, dm_c, dM_c = mom.mu[c], dm[c], dM[c]
            sym = dM_c + dM_c.T
            coef[c, 0] += -a * (dm_c @ mu) + b * (
                mu @ dM_c @ mu - float((dM_c * mom.second_moment[c]).sum()))
            coef[c, 1:4] += a * dm_c - b * (sym @ mu)
            coef[c, 4:7] += b * np.diag(dM_c)
            coef[c, 7:] += b * sym[(0, 0, 1), (1, 2, 2)]
    return value, terms


def _zscores(x, ok, mean, std):
    """(x - mean) / std on the entries where ``ok``, which the items of a stack share.

    The rows come out contiguous: a dot product over a strided row adds in
    another order than over the contiguous row of a single input.
    """
    sel = ok if ok.ndim == 1 else ok[0]
    return np.ascontiguousarray((x[..., sel] - mean[sel]) / std[sel])


def _sum_of_squares(x, ok, mean, std):
    """Each item's z @ z over its own ``ok`` entries; a stack whose items
    disagree on ``ok`` is taken item by item."""
    if ok.ndim > 1 and (ok != ok[0]).any():
        return np.array([_sum_of_squares(xi, oki, mean, std) for xi, oki in zip(x, ok)])
    z = _zscores(x, ok, mean, std)
    return (z[..., None, :] @ z[..., :, None])[..., 0, 0]


def _relation_terms(w, stats, mom, coef):
    """Centroid-relation z-scores; the gradient of class c is coef[c, :4] on the rows 1, u, v, w."""
    w_d = w["relation_dist"]
    w_a = w["relation_angle"]
    if (np.count_nonzero(mom.present, axis=-1) < 2).any():
        raise NoUsableStats("relation_loss: fewer than two classes with usable mass and stats")
    need_grad = coef is not None
    seg, length, cos = relation_geometry(mom.mu)  # as in case_descriptor
    G = np.zeros((N_CLASSES, 3)) if need_grad else None  # dL/dm_c accumulator
    dist_val = 0.0
    angle_val = 0.0

    if w_d > 0.0:
        d = length.reshape(*length.shape[:-2], -1).take(_PAIR_AT, axis=-1)
        ok = np.isfinite(d) & stats.pair_scorable
        dist_val = w_d * _sum_of_squares(d, ok, stats.pair_mean, stats.pair_std)
        if need_grad and ok.any():
            z = _zscores(d, ok, stats.pair_mean, stats.pair_std)
            d, std = d[ok], stats.pair_std[ok]
            I, J = PAIRS[ok].T
            dvec = seg[I, J]
            scale = 2.0 * w_d * z / (std * d)
            np.add.at(G, I, scale[:, None] * dvec)
            np.add.at(G, J, -scale[:, None] * dvec)

    if w_a > 0.0:
        ok = np.isfinite(cos) & stats.triple_scorable
        angle_val = w_a * _sum_of_squares(cos, ok, stats.triple_mean, stats.triple_std)
        if need_grad and ok.any():
            z = _zscores(cos, ok, stats.triple_mean, stats.triple_std)
            cos, std = cos[ok], stats.triple_std[ok]
            I, J, K = TRIPLES[ok].T
            u, v, nu, nv = seg[I, J], seg[K, J], length[I, J], length[K, J]
            # d cos / d u = v/(|u||v|) - cos u/|u|^2, symmetric in v
            dc_du = v / (nu * nv)[:, None] - (cos / nu**2)[:, None] * u
            dc_dv = u / (nu * nv)[:, None] - (cos / nv**2)[:, None] * v
            scale = (2.0 * w_a * z / std)[:, None]
            np.add.at(G, I, scale * dc_du)
            np.add.at(G, K, scale * dc_dv)
            np.add.at(G, J, -scale * (dc_du + dc_dv))

    if need_grad:
        # G_c.(x - m_c)/mass_c = G_c.(u - mu_c)/mass_c is linear in u
        k = mom.present & G.any(axis=1)
        coef[k, 0] += -(G[k] * mom.mu[k]).sum(axis=1) / mom.mass[k]
        coef[k, 1:4] += G[k] / mom.mass[k, None]
    return dist_val + angle_val, {"relation_dist": dist_val, "relation_angle": angle_val}


def _objective(names, w, stats, grid, labels, *, need_grad, probs=None, logits=None,
               weights=None, features=None):
    """Value, terms and gradient of the components ``names``, in two passes over voxel tiles.

    The probabilities come from one source: ``probs`` (8, N) as given, in
    a single tile; ``logits`` (8, N) through the softmax; or ``weights``
    (8, F) times ``features`` (F, N) through the softmax, each in tiles of
    TILE_VOXELS. ``grid`` lends dims, spacing, offset and voxel volume;
    ``labels`` is the flat uint8 ground truth when gdice_ce is enabled.
    Value-only, ``probs`` or ``logits`` may be a stack (B, 8, N) of inputs
    on the one grid: the value and every term are then (B,) arrays, each
    item with the bits of its own call, where one input gives Python floats.

    Pass 1 computes each tile's probabilities and sums the reductions that
    the components read: the class mass, each voxel's own-class
    probability summed per class, the CE sum, and the product with the
    grid basis rows that the prior terms read (all ten with moment, the
    four of the centroids with relation alone on tiles of up to
    TILE_VOXELS). When the gradient is
    wanted it keeps the probabilities in a tile-major buffer, and each
    tile's own-class index and probability, for this call only. The
    components turn the sums into their values and their gradient
    constants, folded into one (8, 10), (8, 4) or (8, 1) coefficient matrix
    on the grid basis, plus the gdice/CE constants at each voxel's label.
    Pass 2 builds each tile's dL/dP from them, maps it through the softmax
    Jacobian in place, and writes it out as dL/dP or dL/dz, or sums its
    product with the feature tile into dL/dW. Returns (value, terms,
    gradient or None).
    """
    source = probs if probs is not None else logits if logits is not None else features
    n = source.shape[-1]
    lead = source.shape[:-2]  # (B,) for a stack
    tile = n if probs is not None else min(TILE_VOXELS, n)
    gd = "gdice_ce" in names
    prior = "moment" in names or "relation" in names
    grad_rows = 10 if "moment" in names else 4 if prior else 1
    # Pass 1 sums the basis rows the terms read, four with relation alone.
    # Over up to TILE_VOXELS voxels, the product with four rows adds in the
    # order of the ten-row one; over more (one probability-interface tile)
    # it need not, so such a tile takes all ten.
    sum_rows = grad_rows if tile <= TILE_VOXELS else 10
    basis = grid_basis(grid.dims, grid.spacing) if prior else None
    by_mass = gd or "volume" in names
    items = math.prod(lead)
    if gd:
        g_sum = np.bincount(labels, minlength=N_CLASSES).astype(np.float64)
        columns = np.arange(tile)
        # a stack's items count their own-class sums in bins of their own
        item_bins = N_CLASSES * np.arange(items)[:, None] if lead else 0
    if probs is None:
        # one tile of scratch, or every tile kept for pass 2
        buf = np.empty(items * N_CLASSES * (n if need_grad else tile))

    def probabilities(s, e):
        if probs is not None:
            return probs
        at = N_CLASSES * s if need_grad else 0
        return buf[at:at + items * N_CLASSES * (e - s)].reshape(*lead, N_CLASSES, e - s)

    def own_class(L, P):
        """Flat index of (L[x], x) in the tile and the probability there."""
        at = L.astype(np.intp)  # widened first: a uint8 product can wrap
        at *= P.shape[-1]
        at += columns[:P.shape[-1]]
        return at, P.reshape(*lead, -1).take(at, axis=-1)

    tiles = [(s, min(s + tile, n)) for s in range(0, n, tile)]
    owns = []  # each tile's own-class index and probability, for pass 2
    for s, e in tiles:
        P = probabilities(s, e)
        if logits is not None:
            _softmax(logits[..., s:e], P)
        elif weights is not None:
            _softmax(np.matmul(weights, features[:, s:e], out=P), P)
        # each sum starts at its first tile's part, so one tile adds nothing
        if by_mass:
            part = P.sum(axis=-1)
            mass = part if s == 0 else mass + part
        if gd:
            L = labels[s:e]
            at, p_own = own_class(L, P)
            if need_grad:
                owns.append((at, p_own))
            part = np.bincount((L + item_bins).reshape(-1), weights=p_own.reshape(-1),
                               minlength=items * N_CLASSES).reshape(*lead, N_CLASSES)
            hits = part if s == 0 else hits + part
            part = -np.log(np.maximum(p_own, CE_CLAMP)).sum(axis=-1)
            ce_sum = part if s == 0 else ce_sum + part
        if prior:
            part = P @ basis[:sum_rows, s:e].T
            raw = part if s == 0 else raw + part

    coef = np.zeros((N_CLASSES, grad_rows)) if need_grad else None
    value = 0.0
    terms: dict[str, float] = {}
    if gd:
        part, t, at_label = _gdice_ce_terms(w, mass, hits, ce_sum, g_sum, n, coef)
        value += part
        terms.update(t)
    if "volume" in names:
        part, t = _volume_terms(w, stats, mass, grid.voxel_volume, coef)
        value += part
        terms.update(t)
    if prior:
        mom = SoftMoments(grid, stats.usable & _FOREGROUND, raw=raw)
        for name, fn in (("moment", _moment_terms), ("relation", _relation_terms)):
            if name in names:
                part, t = fn(w, stats, mom, coef)
                value += part
                terms.update(t)
    if not lead:
        terms = {k: float(v) for k, v in terms.items()}
    if not need_grad:
        return value, terms, None

    grad = np.empty((N_CLASSES, n)) if weights is None else None
    scratch = np.empty(N_CLASSES * tile)
    for i, (s, e) in enumerate(tiles):
        P = probabilities(s, e)
        G = scratch[:N_CLASSES * (e - s)].reshape(N_CLASSES, e - s)
        if grad_rows > 1:
            np.matmul(coef, basis[:grad_rows, s:e], out=G)
        else:
            G[...] = coef
        if gd:
            L = labels[s:e]
            at, p_own = owns[i]
            # CE contributes only at the annotated class; zero where the clamp binds
            live = p_own > CE_CLAMP
            G.reshape(-1)[at] += at_label[L] - (w["ce"] / n) * (
                live / np.maximum(p_own, CE_CLAMP))
        if probs is None:
            # dL/dz_c = p_c (dL/dp_c - sum_d p_d dL/dp_d), the sum row by
            # row: the order .sum(axis=0) adds in
            dot = P[0] * G[0]
            row = np.empty_like(dot)
            for c in range(1, N_CLASSES):
                dot += np.multiply(P[c], G[c], out=row)
            G -= dot
            G *= P
        if weights is None:
            grad[:, s:e] = G
        else:
            part = G @ features[:, s:e].T
            grad = part if s == 0 else grad + part
    return value, terms, grad


def _enabled(cfg: LossConfig) -> list[str]:
    """The COMPONENTS with a positive weight, in table order."""
    w = cfg.weights
    return [n for n, (_, keys) in COMPONENTS.items() if any([w[k] > 0.0 for k in keys])]


def _prob_loss(name, p, stats, cfg, need_grad, labels=None) -> LossEval:
    """One component over given probabilities; the gradient is dL/dP."""
    value, terms, grad = _objective(
        (name,), cfg.weights, stats, p, labels, need_grad=need_grad,
        probs=p.data.reshape(N_CLASSES, -1))
    return LossEval(float(value), None if grad is None else grad.reshape(p.data.shape), terms)


def gdice_ce(
    p: ProbVolume, g: Volume3, cfg: LossConfig = _DEFAULT_CONFIG, *, need_grad: bool = True
) -> LossEval:
    """Generalized Dice plus cross-entropy against uint8 ground-truth labels.

    GDice = 1 - 2*sum_c w_c <p_c, g_c> / (sum_c w_c (sum p_c + sum g_c) + eps)
    with g the one-hot encoding of the labels and w_c = 1/(sum_x g_c + eps)^2;
    CE = -(1/N) sum_x log p_{g(x)}(x) with the probability clamped at 1e-12.
    Only each voxel's own-class probability enters, so both are computed
    from a gather at (label, voxel) and per-class bincounts, never a dense
    one-hot grid. Gradients are analytic for both.
    """
    _require_labels(g)
    _require_same_shape(p, g)
    return _prob_loss("gdice_ce", p, None, cfg, need_grad, labels=g.data.reshape(-1))


def volume_loss(
    p: ProbVolume,
    stats: ShapeStats,
    cfg: LossConfig = _DEFAULT_CONFIG,
    *,
    need_grad: bool = True,
) -> LossEval:
    """Squared z-scores of soft volumes against the population statistics.

    L = w * sum_c ((V_c - mu_c)/sigma_c)^2; the gradient is the constant
    2 w z_c / sigma_c * voxel_volume over class c's grid. Classes without
    stats or with sigma = 0 are skipped and listed in terms as 0.0.
    """
    return _prob_loss("volume", p, stats, cfg, need_grad)


def moment_loss(
    p: ProbVolume,
    stats: ShapeStats,
    cfg: LossConfig = _DEFAULT_CONFIG,
    *,
    need_grad: bool = True,
) -> LossEval:
    """Squared L2/Frobenius distance of soft moments to the reference means.

    L = sum_c [ w1 ||m_c - mbar_c||^2 + w2 ||M_c - Mbar_c||_F^2 ] with m the
    soft centroid and M the central second moment. Gradients use
    dm/dp(x) = (x - m)/mass and dM/dp(x) = ((x-m)(x-m)^T - M)/mass, a
    quadratic in x per class: it is reduced to ten coefficients on the grid
    basis and evaluated for all classes by one matrix product. Low-mass
    classes and classes without stats are skipped.
    """
    return _prob_loss("moment", p, stats, cfg, need_grad)


def relation_loss(
    p: ProbVolume,
    stats: ShapeStats,
    cfg: LossConfig = _DEFAULT_CONFIG,
    *,
    need_grad: bool = True,
) -> LossEval:
    """Squared z-scores of centroid distances and vertex cosines.

    L = w_d sum_pairs ((d_ij - dbar)/s)^2 + w_a sum_triples ((cos - cbar)/s)^2
    over soft centroids. Pairs/triples with zero reference std, missing
    stats, or segments shorter than stats.MIN_SEGMENT_MM are skipped. The
    gradient chains through the centroids via dm_c/dp_c(x) = (x - m_c)/mass_c.
    """
    return _prob_loss("relation", p, stats, cfg, need_grad)


def _component(name: str, p: ProbVolume, g: Volume3, cfg: LossConfig, need_grad: bool):
    """Evaluate one COMPONENTS entry through its module-level function."""
    fn = globals()[COMPONENTS[name][0]]
    return fn(p, g if name == "gdice_ce" else cfg.stats, cfg, need_grad=need_grad)


def total_loss(
    logits: np.ndarray,
    g: Volume3,
    cfg: LossConfig = _DEFAULT_CONFIG,
    *,
    need_grad: bool = True,
    features: np.ndarray | None = None,
) -> LossEval:
    """Weighted sum of the enabled components over softmax(logits).

    ``g`` is the uint8 ground-truth label volume. The gradient is taken
    with respect to the logits: with s = softmax, dL/dz_c = p_c (dL/dp_c -
    sum_d p_d dL/dp_d) per voxel. With ``features`` (F, N) or (F, *dims),
    the first argument is instead the (8, F) weight matrix W of the logits
    W @ features, and the gradient is dL/dW; the logits then never exist
    as a whole grid. Components whose weights are all zero are not
    evaluated at all. Either way the objective runs in two passes over
    tiles of TILE_VOXELS voxels (see ``_objective``), so each tile's
    probabilities and gradient are worked on while in cache, and the
    moment and relation terms share one soft-moment reduction.
    """
    _require_labels(g)
    z = np.asarray(logits, dtype=np.float64)
    n = g.data.size
    if features is None:
        if z.shape != (N_CLASSES,) + g.dims:
            raise ShapeMismatch(f"logits shape {z.shape} does not match ground truth {g.dims}")
        source = {"logits": z.reshape(N_CLASSES, n)}
    else:
        f = np.asarray(features, dtype=np.float64)
        if z.ndim != 2 or z.shape[0] != N_CLASSES or f.ndim < 2 or f.shape[0] != z.shape[1] \
                or f.shape[1:] not in ((n,), g.dims):
            raise ShapeMismatch(f"weights {z.shape} and features {f.shape} do not make "
                                f"logits for ground truth {g.dims}")
        source = {"weights": z, "features": f.reshape(f.shape[0], n)}
    names = _enabled(cfg)
    if cfg.stats is None and (regularized := [n for n in names if n != "gdice_ce"]):
        raise NoUsableStats(f"cfg.stats required for enabled components {tuple(regularized)}")
    value, terms, grad = _objective(names, cfg.weights, cfg.stats, g, g.data.reshape(-1),
                                    need_grad=need_grad, **source)
    if grad is not None and features is None:
        grad = grad.reshape(z.shape)
    return LossEval(value=float(value), grad=grad, terms=terms)


# ---------------------------------------------------------------------------
# Finite-difference verification


GRADCHECK_LOSSES = (*COMPONENTS, "total")


def _gradcheck_instance(size: int, seed: int, name: str = "gdice_ce"):
    """Deterministic random instance: logits, probabilities, GT labels.

    Non-unit anisotropic spacing so grid-geometry bugs cannot cancel out.
    Logits are random noise on top of a per-class octant bias, giving each
    class a distinct spatial concentration. The bias is load-bearing twice
    over: it bounds every probability well away from the CE clamp, and it
    separates the soft centroids by several mm. With coincident centroids
    (plain random softmax) the cosine terms carry 1/|segment|^3 curvature,
    and the finite-difference truncation error alone exceeds the tolerance.
    GT follows the octants so no annotated voxel sits near the clamp, where
    the difference quotient turns cubic in 1/p.

    The total check differences over logits, where the softmax Jacobian
    multiplies every gradient entry by p_c(x); it gets a weaker bias so the
    smallest probability, and with it the smallest entry, stays above the
    noise floor of the loss value.
    """
    rng = np.random.default_rng(seed)
    dims = (size, size, size)
    spacing = (1.5, 1.0, 0.75)
    offset = tuple(-spacing[a] * (dims[a] - 1) / 2.0 for a in range(3))

    ix, iy, iz = np.indices(dims)
    octant = (ix >= dims[0] // 2) + 2 * (iy >= dims[1] // 2) + 4 * (iz >= dims[2] // 2)
    amp, spread = (1.0, 0.35) if name == "total" else (2.2, 0.5)
    bias = amp * (np.arange(N_CLASSES)[:, None, None, None] == octant[None])
    logits = bias + spread * rng.standard_normal((N_CLASSES,) + dims)
    p = ProbVolume(softmax(logits), spacing, offset)
    g = Volume3(octant.astype(np.uint8), spacing, offset)
    return logits, p, g


def _gradcheck_stats(name: str, p: ProbVolume) -> tuple[ShapeStats, dict[str, float]]:
    """Statistics and weights tailored per checked loss.

    The stats are the case's own descriptors shifted by fixed offsets, so
    every z-score is O(1) by construction for any seed; sampling stats from
    random cases instead leaves the stds to chance, and accidentally tiny
    stds swamp the central difference with cancellation noise.

    The per-entry relative criterion needs every gradient entry to clear
    the FD noise floor eps*|L|/(2h), and the component checks pull the
    design in opposite directions. Checked over probabilities, the relation
    gradient of class c is a rank-one linear field crossing zero inside the
    volume, so its stds are kept sharp: large gradients shrink the window
    around the zero plane where entries drown in noise. Checked over
    logits, every entry is multiplied by p_c(x), so the total instead keeps
    the regularizers enabled at small weight under a dominant gdice+ce
    pair: cross-entropy through the softmax Jacobian contributes
    (p_c - g_c)/n_vox per entry, which cannot vanish while probabilities
    stay away from 0 and 1, anchoring every entry above the noise floor.
    """
    d = case_descriptor(p)
    sign = np.where(np.arange(N_CLASSES) % 2 == 0, 1.0, -1.0)
    triple_sign = np.where(TRIPLES.sum(axis=1) % 2 == 0, 1.0, -1.0)
    if name == "total":
        weights = dict.fromkeys(default_weights(), 1e-3)
        weights["gdice"] = 1.0
        weights["ce"] = 1.0
        volume_mean = d.soft_volume * 0.98
        volume_std = 0.05 * d.soft_volume
        centroid_mean = d.soft_centroid + np.outer(sign, (0.01, -0.0075, 0.005))
        second_moment_mean = d.second_moment * (1.0 + 0.0003 * sign)[:, None, None]
        pair_mean, pair_std = d.pair_distance + 0.015, 2.0
        triple_mean, triple_std = d.triple_cosine + 0.0075 * triple_sign, 1.5
    else:
        weights = default_weights()
        volume_mean = d.soft_volume * (1.0 + 0.2 * sign)
        volume_std = 0.5 * d.soft_volume
        centroid_mean = d.soft_centroid + np.outer(sign, (0.25, -0.2, 0.15))
        second_moment_mean = d.second_moment * (1.0 + 0.03 * sign)[:, None, None]
        pair_mean, pair_std = d.pair_distance + 0.04, 0.1
        triple_mean, triple_std = d.triple_cosine + 0.02 * triple_sign, 0.05
    return _fixture_stats(volume_mean, volume_std, centroid_mean, second_moment_mean,
                          pair_mean, pair_std, triple_mean, triple_std), weights


def _fixture_stats(volume_mean, volume_std, centroid_mean, second_moment_mean,
                   pair_mean, pair_std, triple_mean, triple_std) -> ShapeStats:
    """Stats of a gradient-check fixture: 3 cases, one std for all pairs and one for all triples."""
    return ShapeStats(
        volume_mean=volume_mean, volume_std=volume_std, centroid_mean=centroid_mean,
        second_moment_mean=second_moment_mean, class_n=np.full(N_CLASSES, 3, dtype=np.intp),
        pair_mean=pair_mean, pair_std=np.full(len(PAIRS), pair_std), pair_n=np.full(len(PAIRS), 3),
        triple_mean=triple_mean, triple_std=np.full(len(TRIPLES), triple_std),
        triple_n=np.full(len(TRIPLES), 3), n_cases=3,
    )


def gradient_errors(analytic: np.ndarray, fd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-entry absolute and relative error of an analytic gradient against FD.

    The relative error divides by max(|analytic|, |fd|, 1e-8). A check in
    which no entry of either gradient reaches that 1e-8 floor compares
    nothing, and raises InvalidParameter rather than passing.
    """
    abs_err = np.abs(analytic - fd)
    scale = np.maximum(np.abs(analytic), np.abs(fd))
    if not (scale >= 1e-8).any():
        raise InvalidParameter("gradient check compares nothing: no analytic or finite-"
                               "difference gradient entry reaches 1e-8")
    return abs_err, abs_err / np.maximum(scale, 1e-8)


def _seed_and_step(seed, step) -> int:
    """The seed of a gradient check as an int; a seed below 0, or a step
    that is not a finite number > 0, raises InvalidParameter."""
    seed = int_parameter(seed, "seed")
    if seed < 0:
        raise InvalidParameter(f"seed must be >= 0, got {seed}")
    try:
        ok = not isinstance(step, bool) and math.isfinite(step) and step > 0
    except TypeError:
        ok = False
    if not ok:
        raise InvalidParameter(f"step must be a finite number > 0, got {step!r}")
    return seed


def _central_differences(arrays, analytic: np.ndarray, terms, step: float, *,
                         batch=None) -> tuple[dict, int]:
    """Check ``analytic`` against central differences of the objective ``sum(terms())``.

    Each entry of each array is moved in place to +step and -step, then
    restored; ``analytic`` lists the gradient in that order. The terms are
    differenced one by one and then summed, so the rounding of the large
    terms stays out of the small differences. With ``batch``, the one
    array of ``arrays`` is left as it is: for each chunk of its entries,
    the copies with one entry at +step and those with it at -step are
    stacked along a leading axis, and ``batch(stack)`` returns every
    copy's terms as arrays along that axis. A chunk takes FD_CHUNK_BYTES
    at most (at least one entry). Returns the report fields every check
    shares and the flat index of the worst relative error.
    """
    fd = np.empty(analytic.size)
    k = 0
    for arr in arrays:
        flat = arr.reshape(-1)
        chunk = max(1, FD_CHUNK_BYTES // (2 * flat.nbytes)) if batch else 1
        for s in range(0, flat.size, chunk):
            e = min(s + chunk, flat.size)
            if batch is None:
                orig = flat[s]
                flat[s] = orig + step
                hi = terms()
                flat[s] = orig - step
                lo = terms()
                flat[s] = orig
            else:
                c = e - s
                stack = np.tile(flat, (2, c, 1))
                stack[0, range(c), range(s, e)] = flat[s:e] + step
                stack[1, range(c), range(s, e)] = flat[s:e] - step
                out = batch(stack.reshape(2 * c, *arr.shape))
                hi, lo = [t[:c] for t in out], [t[c:] for t in out]
            fd[k + s:k + e] = sum(up - down for up, down in zip(hi, lo)) / (2.0 * step)
        k += flat.size
    abs_err, rel_err = gradient_errors(analytic, fd)
    worst = int(np.argmax(rel_err))
    return {
        "step": step,
        "n_entries": int(analytic.size),
        "max_rel_err": float(rel_err[worst]),
        "max_abs_err": float(abs_err.max()),
    }, worst


def gradcheck(loss_name: str, size: int = 8, seed: int = 0, step: float = 1e-5) -> dict:
    """Analytic vs central finite-difference gradient over every input entry.

    Relative error uses denominator max(|analytic|, |fd|, 1e-8); a check
    with both gradients below that floor everywhere raises InvalidParameter.
    Returns a JSON-ready report with the max errors and their entry location.
    The analytic gradient comes from the module-level loss function; the
    finite differences evaluate stacks of perturbed inputs in one
    ``_objective`` call each.
    """
    if loss_name not in GRADCHECK_LOSSES:
        raise UnknownLoss(f"unknown loss {loss_name!r}; known: {GRADCHECK_LOSSES}")
    size, seed = int_parameter(size, "size"), _seed_and_step(seed, step)
    if size < 1:
        raise InvalidParameter(f"gradcheck needs size >= 1, got {size}")
    logits, p, g = _gradcheck_instance(size, seed, loss_name)
    stats, weights = _gradcheck_stats(loss_name, p)
    cfg = LossConfig(weights=weights, stats=stats)
    if loss_name == "total":
        x, full = logits, total_loss(logits, g, cfg)
        names, grid, source = _enabled(cfg), g, "logits"
    else:
        x, full = p.data, _component(loss_name, p, g, cfg, True)
        names, grid, source = (loss_name,), p, "probs"

    def batch(stack):
        inputs = {source: stack.reshape(len(stack), N_CLASSES, -1)}
        return (_objective(names, cfg.weights, stats, grid, g.data.reshape(-1),
                           need_grad=False, **inputs)[0],)

    report, worst = _central_differences([x], full.grad.reshape(-1), None, step, batch=batch)
    return {"loss": loss_name, "size": size, "seed": seed, "value": full.value, **report,
            "argmax": [int(i) for i in np.unravel_index(worst, x.shape)]}


# ---------------------------------------------------------------------------
# Loss-config file format (stats are referenced separately, never embedded)


def load_loss_config(path: str | os.PathLike, stats: ShapeStats | None = None) -> LossConfig:
    """Read a loss-config file: exactly ``schema`` and ``weights``."""
    doc = read_json(path, "loss-config/1", InvalidLossConfig)
    if set(doc) != {"schema", "weights"} or not isinstance(doc["weights"], dict):
        raise InvalidLossConfig(
            f"loss config {path} must hold exactly 'schema' and a 'weights' object, "
            f"got keys {sorted(doc)}"
        )
    return LossConfig(weights=doc["weights"], stats=stats)

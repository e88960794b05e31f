"""Independent reference implementations used to check the package.

Everything here is deliberately written the slow, obvious way (explicit
voxel listings, pairwise distance matrices, plain central differences) so
a bug in the library cannot cancel against a bug in the test.
"""

import numpy as np

from cardioprior.stats import (  # the row layout of the relation statistics, and the basis
    MASS_EPSILON,
    PAIRS,
    TRIPLES,
    grid_basis,
)


def voxel_centers(dims, spacing, offset):
    """List of (n, 3) world coordinates of all voxel centers, x-major order."""
    pts = []
    for i in range(dims[0]):
        for j in range(dims[1]):
            for k in range(dims[2]):
                pts.append(
                    [
                        offset[0] + spacing[0] * i,
                        offset[1] + spacing[1] * j,
                        offset[2] + spacing[2] * k,
                    ]
                )
    return np.array(pts, dtype=np.float64)


def brute_soft_centroid(p, c):
    """Probability-weighted mean world coordinate via an explicit voxel loop."""
    total = 0.0
    acc = np.zeros(3)
    for i in range(p.dims[0]):
        for j in range(p.dims[1]):
            for k in range(p.dims[2]):
                w = float(p.data[c, i, j, k])
                total += w
                x = [p.offset[a] + p.spacing[a] * (i, j, k)[a] for a in range(3)]
                acc += w * np.asarray(x)
    return acc / total


def brute_soft_second_moment(p, c):
    m = brute_soft_centroid(p, c)
    total = 0.0
    M = np.zeros((3, 3))
    for i in range(p.dims[0]):
        for j in range(p.dims[1]):
            for k in range(p.dims[2]):
                w = float(p.data[c, i, j, k])
                if w == 0.0:
                    continue
                total += w
                x = np.array([p.offset[a] + p.spacing[a] * (i, j, k)[a] for a in range(3)])
                d = x - m
                M += w * np.outer(d, d)
    return M / total


def brute_hard_centroid(labels, c):
    """Unweighted mean voxel-center coordinate of one label class."""
    pts = []
    for i in range(labels.dims[0]):
        for j in range(labels.dims[1]):
            for k in range(labels.dims[2]):
                if labels.data[i, j, k] == c:
                    pts.append(
                        [labels.offset[a] + labels.spacing[a] * (i, j, k)[a] for a in range(3)]
                    )
    return np.mean(pts, axis=0)


def brute_overlap(pred, gt, c):
    """Dice and Jaccard as set arithmetic over voxel index tuples."""
    p = {tuple(ix) for ix in np.argwhere(pred.data == c)}
    g = {tuple(ix) for ix in np.argwhere(gt.data == c)}
    if not p and not g:
        return None, None
    if not p or not g:
        return 0.0, 0.0
    inter = len(p & g)
    return 2.0 * inter / (len(p) + len(g)), inter / len(p | g)


def brute_surface_set(labels, c):
    """6-connectivity surface voxels; the array face counts as exposure."""
    m = labels.data == c
    out = []
    dims = labels.dims
    for i, j, k in np.argwhere(m):
        exposed = False
        for di, dj, dk in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
            ni, nj, nk = i + di, j + dj, k + dk
            if not (0 <= ni < dims[0] and 0 <= nj < dims[1] and 0 <= nk < dims[2]):
                exposed = True
                break
            if not m[ni, nj, nk]:
                exposed = True
                break
        if exposed:
            out.append((int(i), int(j), int(k)))
    return out


def _pairwise_hd_assd(a, b):
    """HD and ASSD from the full pairwise distance matrix of two point sets."""
    dmat = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
    d_ab = dmat.min(axis=1)
    d_ba = dmat.min(axis=0)
    hd = max(float(d_ab.max()), float(d_ba.max()))
    assd = (float(d_ab.sum()) + float(d_ba.sum())) / (len(a) + len(b))
    return hd, assd


def brute_surface_metrics(pred, gt, c, spacing):
    """HD and ASSD from the full pairwise distance matrix of the surfaces."""
    sp = np.asarray(spacing, dtype=np.float64)
    a = np.asarray(brute_surface_set(pred, c), dtype=np.float64).reshape(-1, 3) * sp
    b = np.asarray(brute_surface_set(gt, c), dtype=np.float64).reshape(-1, 3) * sp
    if a.size == 0 or b.size == 0:
        return None, None
    return _pairwise_hd_assd(a, b)


def surface_distances_bruteforce(pred, gt, c):
    """HD and ASSD by direct pairwise search over the package's surface voxels.

    Same contract as ``surface_distances`` (both surfaces non-empty), but the
    distances come from a pairwise search instead of a distance transform.
    """
    from cardioprior import surface_voxels

    sp = np.asarray(pred.spacing, dtype=np.float64)
    return _pairwise_hd_assd(surface_voxels(pred, c) * sp, surface_voxels(gt, c) * sp)


def _full_grid_surface_mask(labels, c):
    """Class-c voxels with a 6-neighbor (or array face) outside the class, on the whole grid."""
    m = labels.data == c
    interior = np.ones_like(m)
    interior[1:] &= m[:-1]
    interior[:-1] &= m[1:]
    interior[:, 1:] &= m[:, :-1]
    interior[:, :-1] &= m[:, 1:]
    interior[:, :, 1:] &= m[:, :, :-1]
    interior[:, :, :-1] &= m[:, :, 1:]
    interior[0] = interior[-1] = False
    interior[:, 0] = interior[:, -1] = False
    interior[:, :, 0] = interior[:, :, -1] = False
    return m & ~interior


def full_grid_surface_distances(pred, gt, c, with_hd95=False):
    """HD, ASSD (and HD95) from distance transforms over the whole grid.

    The uncropped form of ``surface_distances``: same surfaces, same EDT,
    same reductions, but both masks and both transforms span every voxel.
    """
    from scipy import ndimage

    from cardioprior import EmptySurface

    sp_mask = _full_grid_surface_mask(pred, c)
    sg_mask = _full_grid_surface_mask(gt, c)
    n_p, n_g = int(sp_mask.sum()), int(sg_mask.sum())
    if n_p == 0 or n_g == 0:
        raise EmptySurface(f"class {c} has an empty surface (pred {n_p}, gt {n_g} voxels)")
    dt_g = ndimage.distance_transform_edt(~sg_mask, sampling=pred.spacing)
    dt_p = ndimage.distance_transform_edt(~sp_mask, sampling=pred.spacing)
    d_pg = dt_g[sp_mask]
    d_gp = dt_p[sg_mask]
    hd = max(float(d_pg.max()), float(d_gp.max()))
    assd = (float(d_pg.sum()) + float(d_gp.sum())) / (n_p + n_g)
    if not with_hd95:
        return hd, assd
    return hd, assd, max(float(np.percentile(d_pg, 95.0)), float(np.percentile(d_gp, 95.0)))


def dense_gdice_ce(p, labels, w_gd=1.0, w_ce=1.0, eps=1e-6, clamp=1e-12):
    """Generalized Dice + CE and its gradient over a dense one-hot ground truth.

    Value, terms and probability gradient written directly from the formula,
    with G the (8, N) one-hot grid of the labels: no gather, no bincount.
    """
    P = p.data.reshape(p.data.shape[0], -1)
    L = labels.data.reshape(-1)
    G = (np.arange(P.shape[0])[:, None] == L[None, :]).astype(np.float64)
    n_vox = P.shape[1]
    g_sum = G.sum(axis=1)
    w_c = 1.0 / (g_sum + eps) ** 2
    num = float((w_c * (P * G).sum(axis=1)).sum())
    den = float((w_c * (P.sum(axis=1) + g_sum)).sum()) + eps
    gdice = 1.0 - 2.0 * num / den
    p_true = (P * G).sum(axis=0)
    p_clamped = np.maximum(p_true, clamp)
    ce = float(-np.log(p_clamped).sum()) / n_vox
    grad = (-2.0 * w_gd / den**2) * (w_c[:, None] * (G * den - num))
    grad -= (w_ce / n_vox) * G * ((p_true > clamp) / p_clamped)[None, :]
    terms = {"gdice": w_gd * gdice, "ce": w_ce * ce}
    return w_gd * gdice + w_ce * ce, terms, grad.reshape(p.data.shape)


def _dense_moments(p, c, x):
    """Mass, centroid and the per-voxel centred coordinates d (3, N).

    ``x`` is (3, N), the voxel centres listed from the grid's first voxel,
    so d keeps its digits on grids far from the origin; the returned
    centroid is relative to that voxel, and the offset is added back only
    where a world position is needed.
    """
    w = p.data[c].reshape(-1)
    mass = w.sum()
    m = (x * w).sum(axis=1) / mass
    return mass, m, x - m[:, None]


def _first_voxel_centres(p):
    return voxel_centers(p.dims, p.spacing, (0.0, 0.0, 0.0)).T


def per_row_soft_moments(p, classes):
    """Mass, present, mu, centroid and M of every class, one present row at a time.

    The soft-moment kernel's arithmetic written row by row, with masking:
    the same grid-basis product, then each quadratic entry divided by the
    mass of the present rows only, and nan written to the absent ones. The
    kernel must reproduce these bits exactly.
    """
    n_cls = p.data.shape[0]
    centre = np.add(p.offset, np.multiply(p.spacing, np.subtract(p.dims, 1) / 2.0))
    raw = p.data.reshape(n_cls, -1) @ grid_basis(p.dims, p.spacing).T
    mass = raw[:, 0]
    present = np.zeros(n_cls, dtype=bool)
    present[list(classes)] = True
    present &= mass >= MASS_EPSILON
    mu = np.full((n_cls, 3), np.nan)
    M = np.full((n_cls, 3, 3), np.nan)
    quadratic = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
    for c in np.flatnonzero(present):
        mu[c] = raw[c, 1:4] / mass[c]
        for row, (a, b) in enumerate(quadratic, start=4):
            M[c, a, b] = M[c, b, a] = (raw[c, row] - raw[c, 1 + a] * mu[c, b]) / mass[c]
    return mass, present, mu, centre + mu, M


def dense_volume_terms(p, stats, w=1.0):
    """Per-class volume z-score terms and their probability gradient, one class at a time."""
    n_cls = p.data.shape[0]
    vv = float(np.prod(p.spacing))
    terms = {}
    grad = np.zeros(p.data.shape)
    for c in range(1, n_cls):
        sigma = stats.volume_std[c]
        if stats.class_n[c] == 0 or not np.isfinite(sigma) or sigma <= 0.0:
            terms[c] = 0.0
            continue
        z = (p.data[c].sum() * vv - stats.volume_mean[c]) / sigma
        terms[c] = w * z * z
        grad[c] = 2.0 * w * z / sigma * vv
    return terms, grad


def dense_moment_terms(p, stats, w1=1.0, w2=1.0):
    """Per-class moment terms {c: (centroid, second)} and the probability gradient, per voxel.

    Per class with stats and mass >= 1e-6: d = x - m, M = sum p d d^T / mass
    (symmetrised), and the gradient (2/mass) (w1 dm.d + w2 (d.(dM d) -
    <dM, M>)) with dm = m - mbar and dM = M - Mbar.
    """
    terms = {}
    grad = np.zeros((p.data.shape[0], int(np.prod(p.dims))))
    x = _first_voxel_centres(p)
    for c in range(1, p.data.shape[0]):
        if stats.class_n[c] < 1 or p.data[c].sum() < 1e-6:
            terms[c] = (0.0, 0.0)
            continue
        mass, m, d = _dense_moments(p, c, x)
        M = (d * p.data[c].reshape(-1)) @ d.T / mass
        M = 0.5 * (M + M.T)
        dm = (np.asarray(p.offset) + m) - stats.centroid_mean[c]
        dM = M - stats.second_moment_mean[c]
        terms[c] = (w1 * float(dm @ dm), w2 * float((dM * dM).sum()))
        grad[c] = (2.0 * w1 / mass) * (dm @ d)
        grad[c] += (2.0 * w2 / mass) * ((d * (dM @ d)).sum(axis=0) - float((dM * M).sum()))
    return terms, grad.reshape(p.data.shape)


def dense_moment_loss(p, stats):
    """Unit-weight moment loss and its probability gradient, per voxel."""
    terms, grad = dense_moment_terms(p, stats)
    return sum(a + b for a, b in terms.values()), grad


def dense_relation_terms(p, stats, w_d=1.0, w_a=1.0):
    """Distance and angle terms and their probability gradient, per relation.

    Loops over the pair and triple table rows with the loss's skip rules
    (zero std, non-finite mean, absent class, segment below 1e-6 mm),
    accumulates dL/dm per class, then spreads it per voxel as
    dL/dm_c . d / mass_c with d = x - m_c.
    """
    n_cls = p.data.shape[0]
    x = _first_voxel_centres(p)
    m = np.full((n_cls, 3), np.nan)
    for c in range(1, n_cls):
        if stats.class_n[c] >= 1 and p.data[c].sum() >= 1e-6:
            m[c] = _dense_moments(p, c, x)[1]
    G = np.zeros((n_cls, 3))
    dist = angle = 0.0

    def segment(a, b):
        s = m[a] - m[b]
        n = float(np.sqrt(s @ s))
        return (s, n) if n >= 1e-6 else (None, None)

    for (i, j), mean, std in zip(PAIRS.tolist(), stats.pair_mean, stats.pair_std):
        s, n = segment(i, j)
        if s is None or not std > 0.0 or not np.isfinite(mean):
            continue
        z = (n - mean) / std
        dist += w_d * z * z
        G[i] += 2.0 * w_d * z / std * s / n
        G[j] -= 2.0 * w_d * z / std * s / n
    for (i, j, k), mean, std in zip(TRIPLES.tolist(), stats.triple_mean, stats.triple_std):
        a, na = segment(i, j)
        b, nb = segment(k, j)
        if a is None or b is None or not std > 0.0 or not np.isfinite(mean):
            continue
        cos = float(a @ b) / (na * nb)
        z = (cos - mean) / std
        angle += w_a * z * z
        da = b / (na * nb) - cos * a / na**2
        db = a / (na * nb) - cos * b / nb**2
        G[i] += 2.0 * w_a * z / std * da
        G[k] += 2.0 * w_a * z / std * db
        G[j] -= 2.0 * w_a * z / std * (da + db)
    grad = np.zeros((n_cls, int(np.prod(p.dims))))
    for c in range(1, n_cls):
        if np.isfinite(m[c, 0]) and G[c].any():
            mass, _, d = _dense_moments(p, c, x)
            grad[c] = (G[c] @ d) / mass
    return {"relation_dist": dist, "relation_angle": angle}, grad.reshape(p.data.shape)


def dense_relation_loss(p, stats):
    """Unit-weight relation loss and its probability gradient, per relation."""
    terms, grad = dense_relation_terms(p, stats)
    return terms["relation_dist"] + terms["relation_angle"], grad


def stacked_featurize(image, atlas=None):
    """The feature stack as one fresh array per plane, joined by ``np.stack``.

    The z-score, both box filters, the coordinate ramps, the heatmaps and
    the bias written the plain way, with no preallocated stack; the atlas
    grid is not checked. Returns the (F, nx, ny, nz) data.
    """
    from scipy import ndimage

    img = image.data.astype(np.float64)
    img = (img - float(img.mean())) / max(float(img.std()), 1e-12)
    planes = [img, ndimage.uniform_filter(img, size=3, mode="reflect"),
              ndimage.uniform_filter(img, size=5, mode="reflect")]
    for a in range(3):
        n = image.dims[a]
        line = np.zeros(n) if n == 1 else 2.0 * np.arange(n) / (n - 1) - 1.0
        shape = [1, 1, 1]
        shape[a] = n
        planes.append(np.broadcast_to(line.reshape(shape), image.dims).copy())
    if atlas is not None:
        planes.extend(atlas.heatmaps[c] for c in range(atlas.heatmaps.shape[0]))
    planes.append(np.ones(image.dims))
    return np.stack(planes)


def whole_grid_predict(model, image, atlas=None):
    """softmax(W @ F) of the main head over the whole grid: (8, nx, ny, nz)."""
    F = stacked_featurize(image, atlas)
    z = model.weights @ F.reshape(F.shape[0], -1)
    e = np.exp(z - z.max(axis=0))
    return (e / e.sum(axis=0)).reshape((z.shape[0],) + image.dims)


def full_grid_aux_eval(W_aux, flat, aux_weight, aux_target, need_grad):
    """The auxiliary head's weighted MSE and its gradient in whole-grid passes."""
    resid = W_aux @ flat - aux_target
    term = aux_weight * float((resid * resid).mean())
    grad = (2.0 * aux_weight / resid.size) * (resid @ flat.T) if need_grad else None
    return term, grad


def untiled_case_objective(W, flat, labels, weights, stats, W_aux=None, aux_weight=0.0,
                           aux_target=None):
    """One case's training objective, its terms and weight gradients, on the whole grid.

    The logits W @ flat and their softmax as whole (8, N) grids, every
    enabled term from the dense formulas above, the softmax Jacobian as
    P * (G - sum_c P_c G_c), and one product of that with the features:
    no tiles. The auxiliary head is the mean squared error of W_aux @ flat
    against ``aux_target``. Returns (value, terms, grad_w, grad_aux) with
    the term names of the training trace.
    """
    from cardioprior import CLASS_NAMES, ProbVolume

    z = W @ flat
    e = np.exp(z - z.max(axis=0))
    P = e / e.sum(axis=0)
    p = ProbVolume(P.reshape((P.shape[0],) + labels.dims), labels.spacing, labels.offset)
    terms = {}
    grad = np.zeros(p.data.shape)
    if weights["gdice"] > 0.0 or weights["ce"] > 0.0:
        _, t, g = dense_gdice_ce(p, labels, weights["gdice"], weights["ce"])
        terms.update(t)
        grad += g
    if weights["volume"] > 0.0:
        t, g = dense_volume_terms(p, stats, weights["volume"])
        terms.update({f"volume_{CLASS_NAMES[c]}": v for c, v in t.items()})
        grad += g
    if weights["moment_centroid"] > 0.0 or weights["moment_second"] > 0.0:
        t, g = dense_moment_terms(p, stats, weights["moment_centroid"], weights["moment_second"])
        for c, (centroid, second) in t.items():
            terms[f"moment_centroid_{CLASS_NAMES[c]}"] = centroid
            terms[f"moment_second_{CLASS_NAMES[c]}"] = second
        grad += g
    if weights["relation_dist"] > 0.0 or weights["relation_angle"] > 0.0:
        t, g = dense_relation_terms(p, stats, weights["relation_dist"],
                                    weights["relation_angle"])
        terms.update(t)
        grad += g
    G = grad.reshape(P.shape)
    grad_w = (P * (G - (P * G).sum(axis=0))) @ flat.T
    grad_aux = None
    if W_aux is not None:
        terms["aux_mse"], grad_aux = full_grid_aux_eval(
            W_aux, flat, aux_weight, aux_target.reshape(aux_target.shape[0], -1), True)
    return sum(terms.values()), terms, grad_w, grad_aux


def fancy_index_relation_geometry(centroids):
    """relation_geometry by 2-D fancy indexing and np.linalg.norm: (seg, length, cos)."""
    from cardioprior.stats import MIN_SEGMENT_MM, TRIPLES

    m = np.asarray(centroids, dtype=np.float64)
    seg = m[:, None, :] - m[None, :, :]
    length = np.linalg.norm(seg, axis=2)
    length[~(length >= MIN_SEGMENT_MM)] = np.nan
    i, j, k = TRIPLES.T
    cos = (seg[i, j] * seg[k, j]).sum(axis=1) / (length[i, j] * length[k, j])
    return seg, length, cos


def unmemoised_weight_gradcheck(seed, step=1e-5, tiled_aux=False):
    """weight_gradcheck with both heads evaluated on every finite difference.

    The same fixture, term order and report as ``weight_gradcheck``, but
    each entry is moved in place, every evaluation runs the main head
    through ``total_loss`` and the auxiliary head's MSE anew, one copy at
    a time, and the per-entry loop and error formulas are written out here.
    The aux MSE is taken in whole-grid passes, or with ``tiled_aux`` by the
    trainer's tiled ``_aux_eval``, whose bits differ on more than one tile.
    """
    from cardioprior.losses import total_loss
    from cardioprior.trainer import _aux_eval, _case_eval, _weight_check_fixture

    W, W_aux, flats, labels, cfg, aux_target = _weight_check_fixture(seed)

    def aux_mse(flat):
        if tiled_aux:
            return _aux_eval(W_aux, flat, cfg, aux_target, False)[0]
        return full_grid_aux_eval(W_aux, flat, cfg.aux_weight, aux_target, False)[0]

    def terms():
        out = []
        for i in range(2):
            out += [t / 2.0 for t in total_loss(W, labels[i], cfg.loss, need_grad=False,
                                                features=flats[i]).terms.values()]
            out.append(aux_mse(flats[i]) / 2.0)
        return out

    analytic = sum(
        np.concatenate([r[2].ravel(), r[3].ravel()])
        for r in [_case_eval(W, W_aux, flats[i], labels[i], cfg, aux_target, True)
                  for i in range(2)]
    ) / 2.0
    fd = []
    for arr in (W, W_aux):
        flat = arr.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            hi = terms()
            flat[idx] = orig - step
            lo = terms()
            flat[idx] = orig
            fd.append(sum(up - down for up, down in zip(hi, lo)) / (2.0 * step))
    fd = np.array(fd)
    abs_err = np.abs(analytic - fd)
    rel_err = abs_err / np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-8)
    worst = int(np.argmax(rel_err))
    head, entry = divmod(worst, W.size)
    return {
        "seed": seed, "step": step, "n_entries": int(analytic.size),
        "max_rel_err": float(rel_err[worst]), "max_abs_err": float(abs_err.max()),
        "argmax": ["aux" if head else "main"] + [int(i) for i in np.unravel_index(entry, W.shape)],
    }


def per_entry_gradcheck(loss_name, size, seed, step=1e-5):
    """gradcheck with every entry moved in place and the objective evaluated
    once per perturbed input.

    The same instance, stats, analytic gradient and report as ``gradcheck``;
    each finite difference calls the module-level loss function value-only,
    and the per-entry loop and error formulas are written out here.
    """
    from cardioprior.losses import (
        LossConfig, _component, _gradcheck_instance, _gradcheck_stats, total_loss,
    )

    logits, p, g = _gradcheck_instance(size, seed, loss_name)
    stats, weights = _gradcheck_stats(loss_name, p)
    cfg = LossConfig(weights=weights, stats=stats)
    if loss_name == "total":
        x, f = logits, lambda need_grad: total_loss(logits, g, cfg, need_grad=need_grad)
    else:
        x, f = p.data, lambda need_grad: _component(loss_name, p, g, cfg, need_grad)
    full = f(True)
    analytic = full.grad.reshape(-1)
    flat = x.reshape(-1)
    fd = np.empty(flat.size)
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + step
        hi = f(False).value
        flat[idx] = orig - step
        lo = f(False).value
        flat[idx] = orig
        fd[idx] = (hi - lo) / (2.0 * step)
    abs_err = np.abs(analytic - fd)
    rel_err = abs_err / np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-8)
    worst = int(np.argmax(rel_err))
    return {
        "loss": loss_name, "size": size, "seed": seed, "value": full.value, "step": step,
        "n_entries": int(analytic.size), "max_rel_err": float(rel_err[worst]),
        "max_abs_err": float(abs_err.max()),
        "argmax": [int(i) for i in np.unravel_index(worst, x.shape)],
    }


def central_difference(f, x, h=1e-5):
    """Per-entry central difference of scalar f at array x. Mutates a copy."""
    x = np.array(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad = np.empty(flat.size)
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + h
        hi = f(x)
        flat[idx] = orig - h
        lo = f(x)
        flat[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * h)
    return grad.reshape(x.shape)


def random_label_volume(rng, dims, n_blobs=3, classes=(1, 2, 3, 4, 5, 6, 7)):
    """A few random rectangular blobs on a background grid, as uint8 labels."""
    lab = np.zeros(dims, dtype=np.uint8)
    for _ in range(n_blobs):
        c = int(rng.choice(classes))
        lo = [int(rng.integers(0, max(1, dims[a] - 2))) for a in range(3)]
        hi = [int(rng.integers(lo[a] + 1, dims[a] + 1)) for a in range(3)]
        lab[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = c
    return lab


def soft_blob_case(seed, dims, spacing, offset, corner_class=None):
    """Random soft probabilities: each foreground class a blurred blob.

    Every class peaks around its own random centre, so centroids sit mm
    apart. With ``corner_class`` that class keeps only a little mass,
    confined to the 2x2x2 corner at the first voxel.
    """
    from cardioprior import ProbVolume, softmax

    rng = np.random.default_rng(seed)
    idx = np.indices(dims).astype(np.float64)
    logits = 0.5 * rng.standard_normal((8,) + tuple(dims))
    for c in range(1, 8):
        centre = rng.uniform(0.0, np.asarray(dims) - 1.0)
        logits[c] -= 0.4 * np.sqrt(((idx - centre[:, None, None, None]) ** 2).sum(axis=0))
    if corner_class is not None:
        logits[corner_class] = -40.0
        logits[corner_class, :2, :2, :2] = 0.0
    return ProbVolume(softmax(logits), spacing, offset)


def phantom_pose(spec, case_index):
    """The pose draws of ``phantom.generate`` in its documented order:
    (R, translation, scale, axis_factors, rng), the rng left at the noise draw."""
    from cardioprior.phantom import _ASSIGNMENT, _rotation_matrix

    jit = spec.jitter
    key = np.array([spec.seed, case_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    axis = rng.standard_normal(3)
    angle = np.deg2rad(rng.uniform(-jit.pose_rotation_max_deg, jit.pose_rotation_max_deg))
    translation = rng.uniform(-jit.translation_max_mm, jit.translation_max_mm, size=3)
    scale = rng.uniform(*jit.scale_range)
    axis_factors = 1.0 + jit.axis_variation * rng.uniform(-1.0, 1.0, size=(len(_ASSIGNMENT), 3))
    return _rotation_matrix(axis, angle), translation, scale, axis_factors, rng


def full_grid_phantom(spec, case_index):
    """Image and label arrays of ``phantom.generate`` with every compartment
    tested on every voxel; the voxel centres come from ``np.meshgrid``."""
    from cardioprior.phantom import _ASSIGNMENT, BASE_INTENSITY

    R, translation, scale, axis_factors, rng = phantom_pose(spec, case_index)
    dims, spacing = spec.grid.grid_size, spec.grid.spacing
    offset = spec.grid.origin_centered_offset()
    lines = [offset[a] + spacing[a] * np.arange(dims[a], dtype=np.float64) for a in range(3)]
    x = np.stack(np.meshgrid(*lines, indexing="ij"))
    y = np.tensordot(R.T, x - translation[:, None, None, None], axes=(1, 0)) / scale
    labels = np.zeros(dims, dtype=np.uint8)
    for row, (cid, shape) in enumerate(_ASSIGNMENT):
        labels[shape.contains(y, axis_factors[row]) & (labels == 0)] = cid
    noise = rng.standard_normal(dims) * spec.noise_sigma
    image = (np.asarray(BASE_INTENSITY)[labels] + noise).astype(np.float32)
    return image, labels

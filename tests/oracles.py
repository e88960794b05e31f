"""Independent reference implementations used to check the package.

Everything here is deliberately written the slow, obvious way (explicit
voxel listings, pairwise distance matrices, plain central differences) so
a bug in the library cannot cancel against a bug in the test.
"""

import numpy as np


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


def brute_surface_metrics(pred, gt, c, spacing):
    """HD and ASSD from the full pairwise distance matrix of the surfaces."""
    sp = np.asarray(spacing, dtype=np.float64)
    a = np.asarray(brute_surface_set(pred, c), dtype=np.float64).reshape(-1, 3) * sp
    b = np.asarray(brute_surface_set(gt, c), dtype=np.float64).reshape(-1, 3) * sp
    if a.size == 0 or b.size == 0:
        return None, None
    dmat = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
    d_ab = dmat.min(axis=1)
    d_ba = dmat.min(axis=0)
    hd = max(float(d_ab.max()), float(d_ba.max()))
    assd = (float(d_ab.sum()) + float(d_ba.sum())) / (len(a) + len(b))
    return hd, assd


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

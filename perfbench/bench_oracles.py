"""Independent oracles for the benchmark's correctness checks.

Nothing here calls into ``cardioprior``: each check recomputes the
program's output from first principles (closed forms, voxel counts, a
KD-tree search, a raw byte reader, ``hashlib``) so that a regression in
the program cannot cancel against the check. Every function returns plain
numbers or a list of mismatch messages; an empty list means "agrees".
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np
from scipy.spatial import cKDTree

N_CLASSES = 8
FOREGROUND = tuple(range(1, N_CLASSES))
CLASS_NAMES = ("background", "LV", "RV", "LA", "RA", "myocardium",
               "ascending_aorta", "pulmonary_artery")

#: GDice smoothing constant of the program's default loss config.
EPS_GD = 1e-6

_RAW_DTYPES = {"MET_UCHAR": "<u1", "MET_FLOAT": "<f4", "MET_DOUBLE": "<f8"}


# ---------------------------------------------------------------------------
# files


def read_raw(mhd_path: str) -> tuple[np.ndarray, tuple, tuple]:
    """(array [x, y, z], spacing, offset) of an .mhd/.raw pair via ``np.fromfile``.

    The payload is little-endian and x-fastest, so it reshapes in Fortran order.
    """
    fields = {}
    with open(mhd_path, encoding="utf-8") as fh:
        for line in fh:
            if "=" in line:
                key, _, value = line.partition("=")
                fields[key.strip()] = value.strip()
    dims = tuple(int(t) for t in fields["DimSize"].split())
    spacing = tuple(float(t) for t in fields["ElementSpacing"].split())
    offset = tuple(float(t) for t in fields["Offset"].split())
    raw = os.path.join(os.path.dirname(mhd_path), fields["ElementDataFile"])
    data = np.fromfile(raw, dtype=_RAW_DTYPES[fields["ElementType"]])
    if data.size != dims[0] * dims[1] * dims[2]:
        raise ValueError(f"{raw}: {data.size} elements for dims {dims}")
    return data.reshape(dims, order="F"), spacing, offset


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def manifest_errors(out_dir: str, command: str) -> list[str]:
    """Recompute every input hash of ``out_dir/manifest.json``; outputs must exist."""
    path = os.path.join(out_dir, "manifest.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    errors = []
    if doc.get("command") != command:
        errors.append(f"{path}: command {doc.get('command')!r} != {command!r}")
    for inp, digest in sorted(doc.get("inputs", {}).items()):
        if not os.path.exists(inp) or sha256_file(inp) != digest:
            errors.append(f"{path}: input hash mismatch for {inp}")
    for out in doc.get("outputs", []):
        if not os.path.exists(out):
            errors.append(f"{path}: missing output {out}")
    if not doc.get("outputs"):
        errors.append(f"{path}: no outputs listed")
    return errors


# ---------------------------------------------------------------------------
# overlap and surface distances


def confusion(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """8x8 voxel counts, rows = ground truth class, columns = predicted class."""
    idx = gt.astype(np.int64).ravel() * N_CLASSES + pred.astype(np.int64).ravel()
    return np.bincount(idx, minlength=N_CLASSES * N_CLASSES).reshape(N_CLASSES, N_CLASSES)


def surface_points(labels: np.ndarray, c: int, spacing) -> np.ndarray:
    """Scaled index coordinates of class-c voxels with a 6-neighbour (or array face) not c."""
    m = np.pad(labels == c, 1, constant_values=False)
    core = m[1:-1, 1:-1, 1:-1]
    interior = (
        m[2:, 1:-1, 1:-1] & m[:-2, 1:-1, 1:-1]
        & m[1:-1, 2:, 1:-1] & m[1:-1, :-2, 1:-1]
        & m[1:-1, 1:-1, 2:] & m[1:-1, 1:-1, :-2]
    )
    return np.argwhere(core & ~interior) * np.asarray(spacing, dtype=np.float64)


def surface_metrics(pred: np.ndarray, gt: np.ndarray, c: int, spacing):
    """(HD, ASSD, HD95) in mm by nearest-neighbour search between the two surfaces."""
    a = surface_points(pred, c, spacing)
    b = surface_points(gt, c, spacing)
    d_ab = cKDTree(b).query(a)[0]
    d_ba = cKDTree(a).query(b)[0]
    hd = max(float(d_ab.max()), float(d_ba.max()))
    assd = (float(d_ab.sum()) + float(d_ba.sum())) / (a.shape[0] + b.shape[0])
    hd95 = max(float(np.percentile(d_ab, 95.0)), float(np.percentile(d_ba, 95.0)))
    return hd, assd, hd95


def case_metrics(pred: np.ndarray, gt: np.ndarray, spacing, with_hd95: bool) -> dict:
    """The per-case report (report.json layout) recomputed from counts and KD-trees."""
    cm = confusion(pred, gt)
    n_gt, n_pred = cm.sum(axis=1), cm.sum(axis=0)
    classes = {}
    for c in FOREGROUND:
        ng, npred, inter = int(n_gt[c]), int(n_pred[c]), int(cm[c, c])
        entry = {"dice": None, "jaccard": None, "hd_mm": None, "assd_mm": None,
                 "hd95_mm": None, "gt_voxels": ng, "pred_voxels": npred}
        if ng or npred:
            entry["dice"] = 2.0 * inter / (ng + npred)
            entry["jaccard"] = inter / (ng + npred - inter)
        if ng and npred:
            hd, assd, hd95 = surface_metrics(pred, gt, c, spacing)
            entry.update(hd_mm=hd, assd_mm=assd, hd95_mm=hd95 if with_hd95 else None)
        classes[CLASS_NAMES[c]] = entry
    macro = {}
    for key in ("dice", "jaccard", "hd_mm", "assd_mm"):
        vals = [e[key] for e in classes.values() if e["gt_voxels"] and e[key] is not None]
        macro[key] = sum(vals) / len(vals) if vals else None
    return {"classes": classes, "macro": macro}


def _close(a, b, tol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol * max(1.0, abs(b))


def report_errors(report: dict, oracle: dict, tol: float = 1e-9) -> list[str]:
    """Mismatches between a program report dict and :func:`case_metrics`."""
    errors = []
    for name, want in oracle["classes"].items():
        got = report["classes"].get(name)
        if got is None:
            errors.append(f"{report.get('case_id')}: class {name} missing")
            continue
        for key, value in want.items():
            if isinstance(value, int) and not isinstance(value, bool):
                ok = got.get(key) == value
            else:
                ok = _close(got.get(key), value, tol)
            if not ok:
                errors.append(f"{report.get('case_id')}: {name}.{key} {got.get(key)} != {value}")
    for key, value in oracle["macro"].items():
        got = report["macro"].get(key)
        if not _close(got, value, tol):
            errors.append(f"{report.get('case_id')}: macro {key} {got} != {value}")
    return errors


# ---------------------------------------------------------------------------
# training objective and priors


def grid_moments(dims, spacing, offset) -> tuple[np.ndarray, np.ndarray]:
    """Centroid and central second moment of a regular grid's voxel centres.

    Along each axis the centres are an arithmetic progression, with mean
    offset + s (n - 1)/2 and population variance s^2 (n^2 - 1)/12; the axes
    are independent, so the covariance is diagonal.
    """
    n = np.asarray(dims, dtype=np.float64)
    s = np.asarray(spacing, dtype=np.float64)
    centroid = np.asarray(offset, dtype=np.float64) + s * (n - 1.0) / 2.0
    return centroid, np.diag(s * s * (n * n - 1.0) / 12.0)


def epoch0_objective(weights: dict, labels: list[np.ndarray], spacing, offset,
                     volume_mean, volume_std, class_n, centroid_mean, second_moment_mean,
                     aux_weight: float = 0.0, aux_target: np.ndarray | None = None) -> float:
    """Mean training objective at the all-zero weights, where softmax is uniform (1/8).

    Per case: CE = ln 8; GDice from per-class label counts; volume z-scores
    of the uniform soft volume N/8 * voxel volume; moment terms against the
    grid's own centroid and covariance. Every soft centroid coincides, so
    every relation segment is degenerate and the relation term is 0. With an
    auxiliary head, the zero output adds aux_weight * mean(target^2).
    """
    dims = labels[0].shape
    n_vox = float(np.prod(dims))
    voxel_volume = float(np.prod(spacing))
    mass = n_vox / N_CLASSES
    g_centroid, g_moment = grid_moments(dims, spacing, offset)

    prior = 0.0
    for c in FOREGROUND:
        if int(class_n[c]) == 0:
            continue
        sigma = float(volume_std[c])
        if weights["volume"] > 0.0 and math.isfinite(sigma) and sigma > 0.0:
            z = (mass * voxel_volume - float(volume_mean[c])) / sigma
            prior += weights["volume"] * z * z
        dm = g_centroid - np.asarray(centroid_mean[c])
        dM = g_moment - np.asarray(second_moment_mean[c])
        prior += weights["moment_centroid"] * float(dm @ dm)
        prior += weights["moment_second"] * float((dM * dM).sum())

    total = 0.0
    for lab in labels:
        counts = np.bincount(lab.ravel(), minlength=N_CLASSES).astype(np.float64)
        w = 1.0 / (counts + EPS_GD) ** 2
        num = float((w * counts).sum()) / N_CLASSES
        den = float((w * (mass + counts)).sum()) + EPS_GD
        gdice = 1.0 - 2.0 * num / den
        total += weights["gdice"] * gdice + weights["ce"] * math.log(N_CLASSES) + prior
    total /= len(labels)
    if aux_weight > 0.0:
        total += aux_weight * float(np.mean(np.asarray(aux_target) ** 2))
    return total


def volume_means(labels: list[np.ndarray], spacing) -> np.ndarray:
    """Population mean of each class's voxel count times the voxel volume."""
    counts = np.array([np.bincount(lab.ravel(), minlength=N_CLASSES) for lab in labels])
    return counts.mean(axis=0) * float(np.prod(spacing))


def heatmap_errors(heatmaps: np.ndarray, tol: float = 1e-6) -> list[str]:
    """Atlas heatmaps (8, ...) must lie in [0, 1] and sum to 1 per voxel."""
    errors = []
    if heatmaps.min() < 0.0 or heatmaps.max() > 1.0:
        errors.append(f"heatmap values outside [0, 1]: [{heatmaps.min()}, {heatmaps.max()}]")
    dev = float(np.abs(heatmaps.sum(axis=0) - 1.0).max())
    if dev > tol:
        errors.append(f"heatmap voxel sums deviate from 1 by {dev}")
    return errors


def strictly_decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# report summary


def summary_rows(run_dirs: list[str]) -> list[str]:
    """The ``summary.csv`` rows of the given runs, from their per-case report JSONs."""
    rows = []
    for run in run_dirs:
        macros = []
        for f in sorted(os.listdir(run)):
            if f.startswith("report_") and f.endswith(".json"):
                with open(os.path.join(run, f), encoding="utf-8") as fh:
                    macros.append(json.load(fh)["macro"])
        cells = [os.path.basename(os.path.normpath(run))]
        for key, scale in (("dice", 100.0), ("jaccard", 100.0), ("hd_mm", 1.0), ("assd_mm", 1.0)):
            vals = [m[key] for m in macros if m.get(key) is not None]
            cells.append(f"{scale * sum(vals) / len(vals):.2f}" if vals else "n/a")
        rows.append(",".join(cells))
    return rows

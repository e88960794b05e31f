"""Overlap and surface-distance evaluation.

Dice, Jaccard, Hausdorff distance (HD), and Average Symmetric Surface
Distance (ASSD), per class and macro-averaged.

Conventions (documented so numbers are comparable across tools):
surfaces are voxel centers of 6-connectivity boundary voxels, with faces on
the array boundary counting as exposed; HD is the exact maximum (an HD95
column is available but clearly optional); a class empty in both volumes is
*absent* from the report rather than scored 0, while a class empty in
exactly one of the two gets dice = jaccard = 0 and absent surface metrics.

Surface distances run on a Euclidean distance transform over the class's
bounding box only: the smallest box holding every voxel that is c in either
volume. A class-c voxel on a box face that is not an array face has its
outer neighbor outside the box, so not c, and is exposed on the full grid
just as the box's face rule marks it; every surface voxel, hence every EDT
feature and query point, lies inside the box. The distances are therefore
the ones a full-grid transform gives, and the test suite holds them equal
(``==``) to that route and to a direct O(|S_p|*|S_g|) pairwise search
within 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySurface, InvalidLabelValue, ShapeMismatch
from .volume import CLASS_NAMES, FOREGROUND_CLASSES, N_CLASSES, Volume3


def _require_same_grid(pred: Volume3, gt: Volume3) -> None:
    if pred.dims != gt.dims:
        raise ShapeMismatch(f"pred dims {pred.dims} != gt dims {gt.dims}")
    if not np.allclose(pred.spacing, gt.spacing, rtol=0.0, atol=1e-9):
        raise ShapeMismatch(f"pred spacing {pred.spacing} != gt spacing {gt.spacing}")


def overlap(pred: Volume3, gt: Volume3, c: int) -> tuple[float | None, float | None]:
    """Dice and Jaccard for class c; (None, None) when empty in both."""
    _require_same_grid(pred, gt)
    p = pred.data == c
    g = gt.data == c
    np_, ng = int(p.sum()), int(g.sum())
    if np_ == 0 and ng == 0:
        return None, None
    if np_ == 0 or ng == 0:
        return 0.0, 0.0
    inter = int((p & g).sum())
    dice = 2.0 * inter / (np_ + ng)
    jaccard = inter / (np_ + ng - inter)
    return dice, jaccard


def _surface_mask(m: np.ndarray) -> np.ndarray:
    """Voxels of mask m with at least one 6-neighbor (or array face) outside m."""
    interior = np.ones_like(m)
    interior[1:] &= m[:-1]
    interior[:-1] &= m[1:]
    interior[:, 1:] &= m[:, :-1]
    interior[:, :-1] &= m[:, 1:]
    interior[:, :, 1:] &= m[:, :, :-1]
    interior[:, :, :-1] &= m[:, :, 1:]
    # boundary slabs keep interior=True only if the shifted test above kept
    # them, but a face on the array edge is exposed by definition (on a class
    # bounding box, because the neighbor beyond it is outside the class):
    interior[0] = False
    interior[-1] = False
    interior[:, 0] = False
    interior[:, -1] = False
    interior[:, :, 0] = False
    interior[:, :, -1] = False
    return m & ~interior


def _bounding_box(m: np.ndarray) -> tuple[slice, ...]:
    """The smallest box holding every voxel of a non-empty mask."""
    box = []
    for axis in range(m.ndim):
        hit = np.flatnonzero(m.any(axis=tuple(a for a in range(m.ndim) if a != axis)))
        box.append(slice(int(hit[0]), int(hit[-1]) + 1))
    return tuple(box)


def surface_voxels(labels: Volume3, c: int) -> np.ndarray:
    """Indices (k, 3) of the 6-connectivity surface voxels of class c."""
    return np.argwhere(_surface_mask(labels.data == c))


def surface_distances(
    pred: Volume3, gt: Volume3, c: int, *, with_hd95: bool = False
) -> tuple[float, ...]:
    """HD and ASSD (mm) between the class-c surfaces, distance-transform route.

    Distances are measured in the volumes' shared spacing, on the bounding
    box of class c in either volume (see the module docstring).
    ``with_hd95`` appends the optional robust variant, the max of the
    directed 95th percentiles, taken from the same distance arrays.
    """
    from scipy import ndimage  # here, so that importing the package loads no scipy

    _require_same_grid(pred, gt)
    p = pred.data == c
    g = gt.data == c
    if not (p.any() and g.any()):
        raise EmptySurface(
            f"class {c} has an empty surface (pred {int(p.sum())}, gt {int(g.sum())} voxels)"
        )
    box = _bounding_box(p | g)
    sp_mask = _surface_mask(p[box])
    sg_mask = _surface_mask(g[box])
    dt_g = ndimage.distance_transform_edt(~sg_mask, sampling=pred.spacing)
    dt_p = ndimage.distance_transform_edt(~sp_mask, sampling=pred.spacing)
    d_pg = dt_g[sp_mask]
    d_gp = dt_p[sg_mask]
    hd = max(float(d_pg.max()), float(d_gp.max()))
    assd = (float(d_pg.sum()) + float(d_gp.sum())) / (d_pg.size + d_gp.size)
    if not with_hd95:
        return hd, assd
    return hd, assd, max(float(np.percentile(d_pg, 95.0)), float(np.percentile(d_gp, 95.0)))


@dataclass(frozen=True)
class ClassMetrics:
    dice: float | None
    jaccard: float | None
    hd_mm: float | None
    assd_mm: float | None
    gt_voxels: int
    pred_voxels: int
    hd95_mm: float | None = None


@dataclass(frozen=True)
class MetricsReport:
    """Per-class metrics plus macro averages over GT-present classes."""

    case_id: str
    spacing: tuple[float, float, float]
    per_class: dict[int, ClassMetrics]
    macro: dict[str, float | None] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "spacing": list(self.spacing),
            "classes": {
                CLASS_NAMES[c]: {
                    "dice": m.dice,
                    "jaccard": m.jaccard,
                    "hd_mm": m.hd_mm,
                    "assd_mm": m.assd_mm,
                    "hd95_mm": m.hd95_mm,
                    "gt_voxels": m.gt_voxels,
                    "pred_voxels": m.pred_voxels,
                }
                for c, m in sorted(self.per_class.items())
            },
            "macro": dict(self.macro),
        }


def evaluate_case(
    pred: Volume3, gt: Volume3, case_id: str = "", include_hd95: bool = False
) -> MetricsReport:
    """All four metrics per foreground class plus macro averages.

    Distances are in the volumes' own spacing, which the two must share.

    Macro averages run over classes nonempty in ground truth; metrics that
    are absent for such a class (surface distances when the prediction is
    empty) are excluded from their average rather than counted as 0.
    """
    _require_same_grid(pred, gt)
    if pred.data.dtype != np.uint8 or gt.data.dtype != np.uint8:
        raise InvalidLabelValue("evaluate_case expects UInt8 label volumes")
    pred_counts = np.bincount(pred.data.ravel(), minlength=N_CLASSES)
    gt_counts = np.bincount(gt.data.ravel(), minlength=N_CLASSES)
    per_class: dict[int, ClassMetrics] = {}
    for c in FOREGROUND_CLASSES:
        n_p = int(pred_counts[c])
        n_g = int(gt_counts[c])
        dice, jaccard = overlap(pred, gt, c)
        hd = assd = hd95 = None
        if n_p > 0 and n_g > 0:
            if include_hd95:
                hd, assd, hd95 = surface_distances(pred, gt, c, with_hd95=True)
            else:
                hd, assd = surface_distances(pred, gt, c)
        per_class[c] = ClassMetrics(dice, jaccard, hd, assd, n_g, n_p, hd95)

    macro: dict[str, float | None] = {}
    gt_present = [c for c in FOREGROUND_CLASSES if per_class[c].gt_voxels > 0]
    for key in ("dice", "jaccard", "hd_mm", "assd_mm"):
        vals = [getattr(per_class[c], key) for c in gt_present]
        vals = [v for v in vals if v is not None]
        macro[key] = float(np.mean(vals)) if vals else None
    return MetricsReport(case_id=case_id, spacing=pred.spacing, per_class=per_class, macro=macro)

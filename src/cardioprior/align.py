"""Procrustes alignment of label sets and population heatmap atlas construction.

Landmarks are the per-class centroids of the 7 foreground structures. A
closed-form orthogonal (optionally similarity) fit registers each case to a
reference constellation; a short generalized-Procrustes loop refines the
reference; aligned one-hot labels are averaged into per-class probability
heatmaps on a common reference grid.

The reference grid of a :class:`FovSpec` is always placed with its world
center at the origin, so the FOV alone defines the registered space.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .errors import (
    DegenerateConfiguration, InsufficientLandmarks, InvalidAtlas, InvalidParameter, InvalidSpacing,
)
from .preprocess import FovSpec, sample_at_world
from .volume import (
    CLASS_NAMES,
    FOREGROUND_CLASSES,
    N_CLASSES,
    Volume3,
    json_fields,
    read_json,
    read_volume,
    voxel_center_grid,
    write_json,
    write_volume,
)

#: Schema tag of atlas.json.
ATLAS_SCHEMA = "heatmap-atlas/1"


@dataclass(frozen=True)
class RigidTransform:
    """x -> scale * rotation @ x + translation (proper rotation, det = +1)."""

    rotation: np.ndarray
    translation: np.ndarray
    scale: float = 1.0

    def __post_init__(self) -> None:
        R = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if R.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {R.shape}")
        if not np.allclose(R.T @ R, np.eye(3), atol=1e-9):
            raise ValueError("rotation is not orthogonal within 1e-9")
        if not abs(np.linalg.det(R) - 1.0) <= 1e-9:
            raise ValueError("rotation determinant is not +1 within 1e-9")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "scale", float(self.scale))

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3), 1.0)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Apply to points of shape (..., 3) or (3,)."""
        pts = np.asarray(points, dtype=np.float64)
        return self.scale * (pts @ self.rotation.T) + self.translation

    def inverse_apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return ((pts - self.translation) @ self.rotation) / self.scale


@dataclass(frozen=True)
class LandmarkSet:
    """One world point per foreground class (ordered by class id) + presence mask."""

    points: np.ndarray  # (7, 3) mm; rows for absent classes are zeros
    present_mask: np.ndarray  # (7,) bool

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        mask = np.asarray(self.present_mask, dtype=bool)
        if pts.shape != (len(FOREGROUND_CLASSES), 3) or mask.shape != (len(FOREGROUND_CLASSES),):
            raise ValueError("LandmarkSet needs 7 points and a 7-entry mask")
        if not np.isfinite(pts).all():
            raise ValueError("landmark points must be finite")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "present_mask", mask)


def class_centroids(labels: Volume3) -> LandmarkSet:
    """Per-foreground-class unweighted mean world coordinate; absence is flagged."""
    points = np.zeros((len(FOREGROUND_CLASSES), 3))
    mask = np.zeros(len(FOREGROUND_CLASSES), dtype=bool)
    for row, c in enumerate(FOREGROUND_CLASSES):
        idx = np.nonzero(labels.data == c)
        if idx[0].size == 0:
            continue
        mask[row] = True
        points[row] = [labels.offset[a] + labels.spacing[a] * idx[a].mean() for a in range(3)]
    return LandmarkSet(points, mask)


def procrustes_fit(
    source: LandmarkSet, target: LandmarkSet, with_scale: bool = False
) -> tuple[RigidTransform, float]:
    """Least-squares rigid (optionally similarity) fit of source onto target.

    Returns the transform minimizing sum ||s R p_i + t - q_i||^2 over the
    landmarks present in both sets, and the attained residual (that sum).
    Uses the SVD solution with reflection correction.
    """
    common = source.present_mask & target.present_mask
    k = int(common.sum())
    if k < 3:
        raise InsufficientLandmarks(f"need >= 3 common landmarks, have {k}")
    P = source.points[common]
    Q = target.points[common]
    p_bar = P.mean(axis=0)
    q_bar = Q.mean(axis=0)
    Pc = P - p_bar
    Qc = Q - q_bar

    sv = np.linalg.svd(Pc, compute_uv=False)
    if sv[1] <= 1e-9 * max(sv[0], 1.0):
        raise DegenerateConfiguration("source landmarks are collinear or coincident")

    H = Pc.T @ Qc
    U, S, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    D = np.diag([1.0, 1.0, d])
    R = Vt.T @ D @ U.T
    if with_scale:
        scale = float(np.trace(np.diag(S) @ D) / (Pc * Pc).sum())
    else:
        scale = 1.0
    t = q_bar - scale * R @ p_bar
    residual = float(((scale * Pc @ R.T + q_bar - Q) ** 2).sum())
    return RigidTransform(R, t, scale), residual


def apply_transform(v: Volume3, T: RigidTransform, target: FovSpec, mode: str) -> Volume3:
    """Resample a volume into the origin-centered target grid under T.

    The output voxel at world point x takes the input value at T^-1(x);
    samples beyond the input extent are constant-filled with 0/background.
    """
    offset = target.origin_centered_offset()
    pts = voxel_center_grid(target.grid_size, target.spacing, offset)
    src = T.inverse_apply(np.moveaxis(pts, 0, -1))
    src = np.moveaxis(src, -1, 0)
    vals = sample_at_world(v, src, mode)
    data = vals.astype(v.data.dtype) if mode == "nearest" else vals
    return Volume3(np.ascontiguousarray(data), target.spacing, offset)


def gpa_align(
    landmark_sets: list[LandmarkSet],
    gpa_iters: int = 2,
    with_scale: bool = False,
) -> tuple[list[RigidTransform], LandmarkSet, list[float]]:
    """Generalized Procrustes loop over many landmark sets.

    The reference starts as case 0's centroids re-centered on the FOV center
    (the world origin). Each round fits every case to the reference and
    resets the reference to the per-class mean of the aligned landmarks.
    Returns the final per-case transforms, the reference, and the per-round
    total objective (sum of fit residuals), which is non-increasing.
    """
    if not landmark_sets:
        raise InsufficientLandmarks("need at least one case")
    if gpa_iters < 1:
        raise InvalidParameter(f"gpa_iters must be >= 1, got {gpa_iters}")
    first = landmark_sets[0]
    if int(first.present_mask.sum()) < 3:
        raise InsufficientLandmarks("case 0 must have >= 3 landmarks to seed the reference")
    ref_pts = first.points.copy()
    ref_pts[first.present_mask] -= first.points[first.present_mask].mean(axis=0)
    ref = LandmarkSet(ref_pts, first.present_mask.copy())

    transforms: list[RigidTransform] = [RigidTransform.identity() for _ in landmark_sets]
    objective: list[float] = []
    for _ in range(gpa_iters):
        total = 0.0
        aligned: list[np.ndarray] = []
        for i, lm in enumerate(landmark_sets):
            T, res = procrustes_fit(lm, ref, with_scale)
            transforms[i] = T
            total += res
            aligned.append(T.apply(lm.points))
        objective.append(total)
        # reference update: per-class mean over cases where the class exists
        pts = np.zeros_like(ref.points)
        mask = np.zeros_like(ref.present_mask)
        for row in range(len(FOREGROUND_CLASSES)):
            contrib = [aligned[i][row] for i, lm in enumerate(landmark_sets) if lm.present_mask[row]]
            if contrib:
                pts[row] = np.mean(contrib, axis=0)
                mask[row] = True
        ref = LandmarkSet(pts, mask)
    return transforms, ref, objective


@dataclass(frozen=True)
class HeatmapAtlas:
    """Per-class average label distributions on the registered reference grid."""

    reference_grid: FovSpec
    heatmaps: np.ndarray  # (8, nx, ny, nz) float64 in [0, 1]
    case_count: int
    transforms: dict[str, RigidTransform] = field(default_factory=dict)

    def __post_init__(self) -> None:
        hm = np.asarray(self.heatmaps, dtype=np.float64)
        if hm.shape != (N_CLASSES,) + tuple(self.reference_grid.grid_size):
            raise InvalidParameter(f"heatmaps shape {hm.shape} does not match the reference grid")
        if self.case_count < 1:
            raise InvalidParameter(f"case_count must be >= 1, got {self.case_count}")
        object.__setattr__(self, "heatmaps", hm)

    def validate(self, tol: float = 1e-6) -> None:
        if self.heatmaps.min() < 0.0 or self.heatmaps.max() > 1.0:
            raise ValueError("heatmap values outside [0, 1]")
        sums = self.heatmaps.sum(axis=0)
        if np.abs(sums - 1.0).max() > tol:
            raise ValueError("per-voxel heatmap sums differ from 1")


def build_atlas(
    label_volumes: list[Volume3],
    fov: FovSpec,
    gpa_iters: int = 2,
    with_scale: bool = False,
    case_ids: list[str] | None = None,
) -> HeatmapAtlas:
    """Align label volumes by their class centroids and average the indicators.

    Per-case labels are resampled with nearest-neighbor interpolation so each
    case contributes exactly {0,1} per class; the background heatmap is
    1 - sum(foreground), clamped to [0, 1].
    """
    if not label_volumes:
        raise InsufficientLandmarks("need at least one label volume")
    if case_ids is None:
        case_ids = [f"case_{i:03d}" for i in range(len(label_volumes))]
    landmark_sets = [class_centroids(v) for v in label_volumes]
    transforms, _, _ = gpa_align(landmark_sets, gpa_iters, with_scale)

    accum = np.zeros((N_CLASSES,) + tuple(fov.grid_size), dtype=np.float64)
    for vol, T in zip(label_volumes, transforms):
        aligned = apply_transform(vol, T, fov, mode="nearest")
        for c in FOREGROUND_CLASSES:
            accum[c] += aligned.data == c
    heatmaps = accum / len(label_volumes)
    heatmaps[0] = np.clip(1.0 - heatmaps[1:].sum(axis=0), 0.0, 1.0)
    return HeatmapAtlas(
        reference_grid=fov,
        heatmaps=heatmaps,
        case_count=len(label_volumes),
        transforms=dict(zip(case_ids, transforms)),
    )


def atlas_files(atlas_dir: str | os.PathLike) -> list[str]:
    """The files of an atlas directory: atlas.json, then one heatmap volume header per class."""
    names = ["atlas.json"] + [f"heatmap_{name}.mhd" for name in CLASS_NAMES]
    return [os.path.join(atlas_dir, f) for f in names]


def save_atlas(atlas: HeatmapAtlas, out_dir: str | os.PathLike) -> list[str]:
    """Write one MET_DOUBLE volume per class plus the atlas.json manifest; returns their paths."""
    manifest_path, *heatmap_paths = atlas_files(out_dir)
    offset = atlas.reference_grid.origin_centered_offset()
    written = []
    for c, path in enumerate(heatmap_paths):
        vol = Volume3(atlas.heatmaps[c], atlas.reference_grid.spacing, offset)
        written.extend(write_volume(vol, path))
    manifest = {
        "schema": ATLAS_SCHEMA,
        "version": __version__,
        "reference_grid": {
            "grid_size": list(atlas.reference_grid.grid_size),
            "spacing_mm": atlas.reference_grid.spacing_mm,
        },
        "case_count": atlas.case_count,
        "classes": list(CLASS_NAMES),
        "transforms": {
            cid: {
                "matrix": np.hstack([T.rotation, T.translation[:, None]]).ravel().tolist(),
                "scale": T.scale,
            }
            for cid, T in atlas.transforms.items()
        },
    }
    written.append(manifest_path)
    write_json(manifest_path, manifest)
    return written


def load_atlas(atlas_dir: str | os.PathLike) -> HeatmapAtlas:
    """Read an atlas directory; a bad atlas.json, or one that disagrees with
    its heatmap volumes, raises InvalidAtlas."""
    manifest_path, *heatmap_paths = atlas_files(atlas_dir)
    manifest = read_json(manifest_path, ATLAS_SCHEMA, InvalidAtlas)
    if manifest.get("classes") != list(CLASS_NAMES):
        raise InvalidAtlas("atlas manifest class roster does not match this build")
    with json_fields(manifest_path, InvalidAtlas):
        try:
            fov = FovSpec(
                tuple(manifest["reference_grid"]["grid_size"]),
                manifest["reference_grid"]["spacing_mm"],
            )
        except InvalidSpacing as exc:
            raise InvalidAtlas(f"{manifest_path} holds a malformed value: {exc}") from exc
        transforms = {}
        for cid, entry in manifest["transforms"].items():
            m = np.asarray(entry["matrix"], dtype=np.float64).reshape(3, 4)
            transforms[cid] = RigidTransform(m[:, :3], m[:, 3], entry["scale"])
        case_count = manifest["case_count"]
        heatmaps = np.zeros((N_CLASSES,) + fov.grid_size, dtype=np.float64)
        for c, (name, path) in enumerate(zip(CLASS_NAMES, heatmap_paths)):
            vol = read_volume(path)
            if vol.dims != fov.grid_size:
                raise InvalidAtlas(f"heatmap_{name} is {vol.dims} voxels, but {manifest_path} "
                                   f"gives grid_size {fov.grid_size}")
            heatmaps[c] = vol.data
        return HeatmapAtlas(fov, heatmaps, case_count, transforms)

"""Geometric normalization: resampling, centering, FOV embedding.

All sampling is done at voxel-center world coordinates. Points falling outside
the source extent take the constant fill value (0 = background for labels,
0.0 for scalars). Nearest-neighbor rounding is half-up on the continuous
index, so results are deterministic; fractional indices within 1e-9 voxels of
an integer are snapped, which makes aligned-grid resampling an exact identity
for both interpolation modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyForeground, InvalidParameter, InvalidSpacing, int_parameter
from .volume import Volume3, voxel_center_grid

_SNAP = 1e-9  # voxels

#: Largest grid ``resample`` builds: 134 MB per float64 plane, and sampling holds several.
MAX_RESAMPLE_VOXELS = 256**3


@dataclass(frozen=True)
class FovSpec:
    """Standardized field of view: a cubic-count grid at isotropic spacing."""

    grid_size: tuple[int, int, int] = (64, 64, 64)
    spacing_mm: float = 1.5

    def __post_init__(self) -> None:
        try:
            size = tuple(int_parameter(n, "grid_size component") for n in self.grid_size)
        except TypeError:  # not iterable
            raise InvalidParameter(f"grid_size must be 3 integers, got {self.grid_size!r}") \
                from None
        if len(size) != 3 or any(n < 8 for n in size):
            raise InvalidParameter(f"grid_size components must be >= 8, got {self.grid_size}")
        object.__setattr__(self, "grid_size", size)
        spacing = self.spacing_mm
        real = not isinstance(spacing, bool) and isinstance(spacing, (int, float, np.integer,
                                                                      np.floating))
        if not (real and math.isfinite(spacing) and spacing > 0):
            raise InvalidSpacing(f"spacing_mm must be a finite positive number, got {spacing!r}")
        object.__setattr__(self, "spacing_mm", float(spacing))

    @property
    def spacing(self) -> tuple[float, float, float]:
        return (self.spacing_mm,) * 3

    def origin_centered_offset(self) -> tuple[float, float, float]:
        """Offset placing the grid's world center at the origin."""
        return tuple(-self.spacing_mm * (n - 1) / 2.0 for n in self.grid_size)  # type: ignore[return-value]


def sample_at_world(v: Volume3, points: np.ndarray, mode: str) -> np.ndarray:
    """Sample a volume at world points, shape (3, ...) -> values with points' trailing shape.

    mode "nearest" rounds the continuous voxel index half-up; "trilinear"
    blends the 8 surrounding voxel centers. Out-of-grid contributions are 0.
    """
    if mode not in ("nearest", "trilinear"):
        raise ValueError(f"unknown interpolation mode {mode!r}")
    dims = v.dims
    shape = points.shape[1:]
    # continuous voxel index per axis
    f = [
        (points[a].astype(np.float64) - v.offset[a]) / v.spacing[a]
        for a in range(3)
    ]

    if mode == "nearest":
        idx = [np.floor(f[a] + 0.5).astype(np.int64) for a in range(3)]
        inside = np.ones(shape, dtype=bool)
        for a in range(3):
            inside &= (idx[a] >= 0) & (idx[a] < dims[a])
        out = np.zeros(shape, dtype=v.data.dtype)
        ci = [np.clip(idx[a], 0, dims[a] - 1) for a in range(3)]
        vals = v.data[ci[0], ci[1], ci[2]]
        out[inside] = vals[inside]
        return out

    # trilinear: snap near-integer indices so aligned grids resample exactly
    lo, frac = [], []
    for a in range(3):
        fa = f[a]
        base = np.floor(fa)
        fr = fa - base
        snap_lo = fr < _SNAP
        snap_hi = fr > 1.0 - _SNAP
        fr = np.where(snap_lo, 0.0, fr)
        base = np.where(snap_hi, base + 1, base)
        fr = np.where(snap_hi, 0.0, fr)
        lo.append(base.astype(np.int64))
        frac.append(fr)
    out = np.zeros(shape, dtype=np.float64)
    for dx in (0, 1):
        wx = (1.0 - frac[0]) if dx == 0 else frac[0]
        for dy in (0, 1):
            wy = (1.0 - frac[1]) if dy == 0 else frac[1]
            for dz in (0, 1):
                wz = (1.0 - frac[2]) if dz == 0 else frac[2]
                w = wx * wy * wz
                ix, iy, iz = lo[0] + dx, lo[1] + dy, lo[2] + dz
                inside = (
                    (ix >= 0) & (ix < dims[0])
                    & (iy >= 0) & (iy < dims[1])
                    & (iz >= 0) & (iz < dims[2])
                )
                cx = np.clip(ix, 0, dims[0] - 1)
                cy = np.clip(iy, 0, dims[1] - 1)
                cz = np.clip(iz, 0, dims[2] - 1)
                vals = v.data[cx, cy, cz].astype(np.float64)
                out += np.where(inside, w * vals, 0.0)
    return out


def _sampled_volume(v: Volume3, points: np.ndarray, mode: str,
                    spacing, offset) -> Volume3:
    vals = sample_at_world(v, points, mode)
    if mode == "nearest":
        data = vals.astype(v.data.dtype)
    else:
        data = vals.astype(np.float64 if v.data.dtype == np.float64 else np.float32)
    return Volume3(data, spacing, offset)


def resample(v: Volume3, target_spacing: tuple[float, float, float], mode: str) -> Volume3:
    """Resample onto a grid with the given spacing covering the input's world extent.

    The output grid is centered on the input grid's world center; with equal
    spacing and aligned grids this is the identity for both modes. A grid over
    MAX_RESAMPLE_VOXELS raises InvalidParameter before anything is allocated.
    """
    ts = tuple(float(s) for s in target_spacing)
    if len(ts) != 3 or any(s <= 0 for s in ts):
        raise InvalidSpacing(f"target spacing must be 3 positive reals, got {target_spacing}")
    dims_out = tuple(
        max(1, math.ceil(v.dims[a] * v.spacing[a] / ts[a] - 1e-9)) for a in range(3)
    )
    if math.prod(dims_out) > MAX_RESAMPLE_VOXELS:
        raise InvalidParameter(f"spacing {ts} mm resamples the {v.dims} grid at {v.spacing} mm "
                               f"to {dims_out} voxels, over the cap of {MAX_RESAMPLE_VOXELS}")
    # exact identity when grids match: the half-extent difference is 0.0 then
    offset = tuple(
        v.offset[a] + (v.spacing[a] * (v.dims[a] - 1) - ts[a] * (dims_out[a] - 1)) / 2.0
        for a in range(3)
    )
    points = voxel_center_grid(dims_out, ts, offset)  # type: ignore[arg-type]
    return _sampled_volume(v, points, mode, ts, offset)


def foreground_centroid(labels: Volume3) -> np.ndarray:
    """Unweighted mean world coordinate of all voxels with label != 0."""
    mask = labels.data != 0
    n = int(mask.sum())
    if n == 0:
        raise EmptyForeground("label volume has no foreground voxels")
    idx = np.nonzero(mask)
    return np.array(
        [labels.offset[a] + labels.spacing[a] * idx[a].mean() for a in range(3)]
    )


def embed_fov(v: Volume3, center, fov: FovSpec, mode: str) -> Volume3:
    """Embed a volume into a standardized FOV whose world center is ``center``."""
    center = np.asarray(center, dtype=np.float64)
    offset = tuple(center[a] - fov.spacing_mm * (fov.grid_size[a] - 1) / 2.0 for a in range(3))
    points = voxel_center_grid(fov.grid_size, fov.spacing, offset)  # type: ignore[arg-type]
    return _sampled_volume(v, points, mode, fov.spacing, offset)

"""Deterministic synthetic heart phantoms.

Seven analytic compartments (ellipsoids and capsules) sit in a fixed
canonical constellation: two ventricles, two atria, a myocardium shell
around the LV, and two vessel tubes leaving the base. Each case applies a
whole-heart rigid pose (rotation about the origin, translation, global
scale) plus small per-compartment axis variations, drawn from a
counter-based RNG keyed on (seed, case_index) so parallel generation
cannot change results.

Geometry is implicit and evaluated at voxel centers, so ground-truth
volumes, centroids, and moments have closed forms; ``canonical_volumes``
exposes them for sanity checks against the voxelized statistics.

Each compartment is tested only on the voxels of its world-space bounding
box, widened by one voxel and clipped to the grid. The pose is a rotation
(which keeps distances), a translation and a uniform scale, so the box
holds every voxel the compartment can contain: an ellipsoid lies within
``s * max(semi_axes * axis_factor)`` of its posed centre, and a capsule
within ``s * radius * axis_factor[0]`` of its two posed endpoints' box.
The canonical coordinates are still computed for the whole grid at once,
so every tested voxel sees the same values as a whole-grid test would,
and the labels are the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSpec,
    InvalidLabelValue,
    InvalidParameter,
    UnknownMode,
    int_parameter,
)
from .preprocess import FovSpec
from .volume import FOREGROUND_CLASSES, Volume3, voxel_center_grid


@dataclass(frozen=True)
class _Ellipsoid:
    center: tuple[float, float, float]
    semi_axes: tuple[float, float, float]

    def max_radius(self) -> float:
        return float(np.linalg.norm(self.center) + max(self.semi_axes))

    def volume(self) -> float:
        a, b, c = self.semi_axes
        return 4.0 / 3.0 * np.pi * a * b * c

    def world_bounds(self, R: np.ndarray, t: np.ndarray, s: float,
                     axis_factor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Corners of a world box holding the shape posed by x = s R y + t."""
        centre = s * (R @ np.asarray(self.center)) + t
        r = s * float(np.max(np.asarray(self.semi_axes) * axis_factor))
        return centre - r, centre + r

    def contains(self, y: np.ndarray, axis_factor: np.ndarray) -> np.ndarray:
        ax = np.asarray(self.semi_axes) * axis_factor
        q = sum(((y[a] - self.center[a]) / ax[a]) ** 2 for a in range(3))
        return q <= 1.0


@dataclass(frozen=True)
class _Capsule:
    p0: tuple[float, float, float]
    p1: tuple[float, float, float]
    radius: float

    def max_radius(self) -> float:
        ends = max(float(np.linalg.norm(self.p0)), float(np.linalg.norm(self.p1)))
        return ends + self.radius

    def volume(self) -> float:
        length = float(np.linalg.norm(np.subtract(self.p1, self.p0)))
        r = self.radius
        return np.pi * r * r * length + 4.0 / 3.0 * np.pi * r ** 3

    def world_bounds(self, R: np.ndarray, t: np.ndarray, s: float,
                     axis_factor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Corners of a world box holding the shape posed by x = s R y + t."""
        ends = s * (np.array([self.p0, self.p1]) @ R.T) + t
        r = s * self.radius * float(axis_factor[0])
        return ends.min(axis=0) - r, ends.max(axis=0) + r

    def contains(self, y: np.ndarray, axis_factor: np.ndarray) -> np.ndarray:
        # only the radius varies; endpoints are part of the constellation
        r = self.radius * float(axis_factor[0])
        p0 = np.asarray(self.p0)
        d = np.subtract(self.p1, self.p0)
        w = y - p0[:, None, None, None]
        t = np.clip(np.tensordot(d, w, axes=(0, 0)) / float(d @ d), 0.0, 1.0)
        closest = p0[:, None, None, None] + d[:, None, None, None] * t
        dist2 = ((y - closest) ** 2).sum(axis=0)
        return dist2 <= r * r


#: Canonical compartments in label-assignment (priority) order. The LV is
#: written before the myocardium so the shell is exactly outer minus LV.
#: Centers are deliberately off the voxel-center lattice of the default
#: 48^3 / 2 mm grid; integer-mm placements align surfaces with sampling
#: planes and bias voxelized volumes by several percent.
_ASSIGNMENT: tuple[tuple[int, object], ...] = (
    (1, _Ellipsoid((-12.18, 0.41, -13.42), (10.5, 10.5, 14.5))),   # LV
    (5, _Ellipsoid((-12.18, 0.41, -13.42), (14.5, 14.5, 18.5))),   # myocardium (shell)
    (2, _Ellipsoid((16.23, 0.27, -13.52), (9.5, 10.5, 13.5))),     # RV
    (3, _Ellipsoid((-12.32, -0.2, 17.88), (8.7, 8.1, 8.3))),       # LA
    (4, _Ellipsoid((13.47, 1.22, 18.25), (8.3, 8.1, 8.3))),        # RA
    (6, _Capsule((-4.25, 16.53, 6.59), (-2.05, 16.53, 27.49), 5.7)),  # ascending aorta
    (7, _Capsule((9.85, -16.41, 8.33), (3.65, -16.41, 29.03), 5.1)),  # pulmonary artery
)

#: Pseudo-CT base intensity per class id (background first).
BASE_INTENSITY = (40.0, 320.0, 300.0, 310.0, 290.0, 120.0, 330.0, 280.0)


def canonical_compartments() -> dict[int, object]:
    """Class id -> analytic shape of the canonical (zero-jitter) phantom."""
    return {cid: shape for cid, shape in _ASSIGNMENT}


def canonical_volumes() -> dict[int, float]:
    """Closed-form compartment volumes (mm^3); the shell subtracts the LV."""
    shapes = canonical_compartments()
    vols = {cid: shape.volume() for cid, shape in shapes.items()}
    vols[5] = shapes[5].volume() - shapes[1].volume()
    return vols


@dataclass(frozen=True)
class Jitter:
    pose_rotation_max_deg: float = 10.0
    translation_max_mm: float = 4.0
    scale_range: tuple[float, float] = (0.95, 1.05)
    axis_variation: float = 0.06

    def __post_init__(self) -> None:
        scale_range = tuple(float(s) for s in self.scale_range)
        if (len(scale_range) != 2 or not np.isfinite(scale_range).all()
                or not 0.0 < scale_range[0] <= scale_range[1]):
            raise InvalidParameter(
                f"scale_range must be a finite positive interval (lo, hi), got {self.scale_range}"
            )
        object.__setattr__(self, "scale_range", scale_range)
        if not 0.0 <= self.axis_variation < 0.5:
            raise InvalidParameter(f"axis_variation must be in [0, 0.5), got {self.axis_variation}")
        if not 0.0 <= self.pose_rotation_max_deg <= 45.0:
            raise InvalidParameter(
                f"pose_rotation_max_deg must be in [0, 45], got {self.pose_rotation_max_deg}"
            )
        if not (np.isfinite(self.translation_max_mm) and self.translation_max_mm >= 0.0):
            raise InvalidParameter(
                f"translation_max_mm must be finite and >= 0, got {self.translation_max_mm}"
            )

    @staticmethod
    def none() -> "Jitter":
        return Jitter(0.0, 0.0, (1.0, 1.0), 0.0)


def _philox_key(value, name: str) -> int:
    """A seed or case index: an integer in [0, 2**64), one word of the Philox key."""
    key = int_parameter(value, name)
    if not 0 <= key < 2**64:
        raise InvalidParameter(f"{name} must be in [0, 2**64), got {value!r}")
    return key


def _default_grid() -> FovSpec:
    return FovSpec((48, 48, 48), 2.0)


@dataclass(frozen=True)
class PhantomSpec:
    grid: FovSpec = field(default_factory=_default_grid)
    seed: int = 0
    jitter: Jitter = field(default_factory=Jitter)
    noise_sigma: float = 12.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _philox_key(self.seed, "seed"))
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise InvalidParameter(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


def _rotation_matrix(axis: np.ndarray, angle_rad: float) -> np.ndarray:
    n = float(np.linalg.norm(axis))
    u = axis / n if n > 1e-12 else np.array([0.0, 0.0, 1.0])
    K = np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])
    return np.eye(3) + np.sin(angle_rad) * K + (1.0 - np.cos(angle_rad)) * (K @ K)


def _check_fit(spec: PhantomSpec) -> None:
    r0 = max(shape.max_radius() for _, shape in _ASSIGNMENT)
    worst = (
        r0 * spec.jitter.scale_range[1] * (1.0 + spec.jitter.axis_variation)
        + spec.jitter.translation_max_mm
    )
    half_extent = min(spec.grid.spacing_mm * n / 2.0 for n in spec.grid.grid_size)
    if worst > half_extent:
        raise DegenerateSpec(
            f"compartments reach {worst:.1f} mm from the origin but the grid "
            f"half-extent is only {half_extent:.1f} mm"
        )


def generate(spec: PhantomSpec, case_index: int) -> tuple[Volume3, Volume3]:
    """One phantom case: (pseudo-CT image Float32, labels UInt8).

    Pure function of (spec, case_index); the RNG is Philox keyed on
    (seed, case_index) with a fixed draw order (rotation axis, angle,
    translation, scale, per-compartment axis factors, image noise).
    """
    _check_fit(spec)
    key = [spec.seed, _philox_key(case_index, "case_index")]
    rng = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
    axis = rng.standard_normal(3)
    angle = np.deg2rad(rng.uniform(-spec.jitter.pose_rotation_max_deg,
                                   spec.jitter.pose_rotation_max_deg))
    translation = rng.uniform(-spec.jitter.translation_max_mm,
                              spec.jitter.translation_max_mm, size=3)
    scale = rng.uniform(*spec.jitter.scale_range)
    axis_factors = 1.0 + spec.jitter.axis_variation * rng.uniform(-1.0, 1.0,
                                                                  size=(len(_ASSIGNMENT), 3))
    R = _rotation_matrix(axis, angle)

    offset = spec.grid.origin_centered_offset()
    x = voxel_center_grid(spec.grid.grid_size, spec.grid.spacing, offset)
    # canonical coordinates of each voxel center: y = R^T (x - t) / s
    shifted = x - np.asarray(translation)[:, None, None, None]
    y = np.tensordot(R.T, shifted, axes=(1, 0)) / scale

    labels = np.zeros(spec.grid.grid_size, dtype=np.uint8)
    dims = np.asarray(spec.grid.grid_size)
    for row, (cid, shape) in enumerate(_ASSIGNMENT):
        lo, hi = shape.world_bounds(R, translation, scale, axis_factors[row])
        # the voxels of the box, one more on each side, clipped to the grid
        start = np.clip(np.floor((lo - offset) / spec.grid.spacing_mm) - 1, 0, dims)
        stop = np.clip(np.ceil((hi - offset) / spec.grid.spacing_mm) + 2, 0, dims)
        box = tuple(map(slice, start.astype(int), stop.astype(int)))
        free = labels[box]
        inside = shape.contains(y[(slice(None),) + box], axis_factors[row]) & (free == 0)
        free[inside] = cid

    base = np.asarray(BASE_INTENSITY)[labels]
    noise = rng.standard_normal(spec.grid.grid_size) * spec.noise_sigma
    image = (base + noise).astype(np.float32)
    sp = spec.grid.spacing
    return Volume3(image, sp, offset), Volume3(labels, sp, offset)


#: The 6-connected structuring element: the centre and its face neighbours.
_STRUCT6 = np.zeros((3, 3, 3), dtype=bool)
_STRUCT6[1, 1, :] = _STRUCT6[1, :, 1] = _STRUCT6[:, 1, 1] = True


def degrade(labels: Volume3, mode: str, magnitude, seed: int = 0) -> Volume3:
    """Deterministic label corruption for metric and loss testing.

    magnitude means: erode/dilate -> iterations (an integer >= 0);
    drop_class -> the class id to erase (an integer); swap_boundary ->
    fraction of boundary voxels reassigned to a random differing
    neighbor's label (seeded), a real number in [0, 1]. A magnitude of
    another type or outside its range raises InvalidParameter. Only erode
    and dilate load scipy.
    """
    out = labels.data.copy()
    if mode in ("erode", "dilate"):
        it = int_parameter(magnitude, f"{mode} iterations")
        if it < 0:
            raise InvalidParameter(f"{mode} iterations must be >= 0, got {it}")
    if mode == "erode":
        from scipy import ndimage

        if it > 0:
            for c in FOREGROUND_CLASSES:
                m = labels.data == c
                if m.any():
                    kept = ndimage.binary_erosion(m, _STRUCT6, iterations=it)
                    out[m & ~kept] = 0
    elif mode == "dilate":
        from scipy import ndimage

        if it > 0:
            for c in FOREGROUND_CLASSES:
                m = labels.data == c
                if m.any():
                    grown = ndimage.binary_dilation(m, _STRUCT6, iterations=it)
                    out[grown & (out == 0)] = c
    elif mode == "drop_class":
        cid = int_parameter(magnitude, "drop_class class id")
        if cid not in FOREGROUND_CLASSES:
            raise InvalidLabelValue(f"drop_class needs a foreground class id, got {magnitude}")
        out[out == cid] = 0
    elif mode == "swap_boundary":
        if isinstance(magnitude, bool) or not isinstance(magnitude, (int, float, np.integer,
                                                                     np.floating)):
            raise InvalidParameter(f"swap_boundary fraction must be a number, got {magnitude!r}")
        frac = float(magnitude)
        if not 0.0 <= frac <= 1.0:
            raise InvalidParameter(f"swap_boundary fraction must be in [0, 1], got {magnitude}")
        src = labels.data
        shifts = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
        boundary = np.zeros(src.shape, dtype=bool)
        boundary[1:] |= src[1:] != src[:-1]
        boundary[:-1] |= src[:-1] != src[1:]
        boundary[:, 1:] |= src[:, 1:] != src[:, :-1]
        boundary[:, :-1] |= src[:, :-1] != src[:, 1:]
        boundary[:, :, 1:] |= src[:, :, 1:] != src[:, :, :-1]
        boundary[:, :, :-1] |= src[:, :, :-1] != src[:, :, 1:]
        idx = np.argwhere(boundary)
        k = int(round(frac * idx.shape[0]))
        if k > 0:
            rng = np.random.default_rng(seed)
            chosen = idx[rng.choice(idx.shape[0], size=k, replace=False)]
            dims = src.shape
            for i, j, l in chosen:
                cands = []
                for dx, dy, dz in shifts:
                    ni, nj, nl = i + dx, j + dy, l + dz
                    if 0 <= ni < dims[0] and 0 <= nj < dims[1] and 0 <= nl < dims[2]:
                        v = src[ni, nj, nl]
                        if v != src[i, j, l]:
                            cands.append(v)
                if cands:
                    out[i, j, l] = cands[int(rng.integers(len(cands)))]
    else:
        raise UnknownMode(f"unknown degrade mode {mode!r}")
    return Volume3(out, labels.spacing, labels.offset)

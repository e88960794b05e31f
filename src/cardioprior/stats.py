"""Soft shape descriptors and their population statistics.

A *soft* quantity is computed from per-voxel class probabilities rather than
hard labels, which makes it differentiable: soft volume is probability mass
times voxel volume, the soft centroid is the probability-weighted mean world
coordinate, and the soft second moment is the probability-weighted central
covariance of world coordinates (its eigenstructure describes the best-fit
ellipsoid). All three come from one pass: the probabilities times a cached
basis of coordinate monomials about the grid centre (``grid_basis``).

Centroid relations are stored as pairwise distances (mm) and as cosines of
the angle at a vertex centroid, which avoids any angle-unit or wraparound
convention, in arrays on the rows of the one relation table (PAIRS,
TRIPLES); class-id keys appear only in stats.json. Population statistics use population (divide-by-n) standard
deviations and are computed per quantity only over the cases where that
quantity is present.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from ._version import __version__
from .errors import InvalidStats, VanishingMass
from .volume import (
    CLASS_NAMES, FOREGROUND_CLASSES, N_CLASSES, ProbVolume, json_fields, read_json, write_json,
)

#: Soft-mass floor (in voxels of probability mass) below which moment
#: quantities are reported absent instead of risking near-zero denominators.
MASS_EPSILON = 1e-6

#: Centroid segments shorter than this (mm) yield no distance or cosine, in
#: the descriptors and in the relation loss alike.
MIN_SEGMENT_MM = 1e-6

#: Coordinate-axis pairs of the quadratic grid-basis rows 4..9.
_QUADRATIC = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
#: The same pairs as index columns, and the quadratic row (0..5) holding
#: each entry of a symmetric 3x3 matrix in C order.
_QA, _QB = np.array(_QUADRATIC).T
_SYM = np.array([0, 3, 4, 3, 1, 5, 4, 5, 2])


@lru_cache(maxsize=4)
def grid_basis(dims: tuple[int, int, int], spacing: tuple[float, float, float]) -> np.ndarray:
    """The ten monomials of the voxel-centre coordinates, (10, N), read-only.

    Rows are 1, u, v, w, uu, vv, ww, uv, uw, vw with (u, v, w) the voxel
    centre minus the grid centre in mm, voxels in C order. Every soft moment
    and every moment or relation gradient is a linear combination of these
    rows. The offset does not enter, so one basis serves every grid of the
    same dims and spacing; the few most recent grids are cached.
    """
    axes = [spacing[a] * (np.arange(dims[a]) - (dims[a] - 1) / 2.0) for a in range(3)]
    basis = np.empty((10, *dims))
    basis[0] = 1.0
    basis[1] = axes[0][:, None, None]
    basis[2] = axes[1][None, :, None]
    basis[3] = axes[2][None, None, :]
    for row, (a, b) in enumerate(_QUADRATIC, start=4):
        np.multiply(basis[1 + a], basis[1 + b], out=basis[row])
    basis = basis.reshape(10, -1)
    basis.setflags(write=False)
    return basis


class SoftMoments:
    """The soft-moment kernel: every class's moments from one product.

    ``mass`` (8,), ``centroid`` (8, 3), ``second_moment`` (8, 3, 3) and
    ``present`` (8,) are indexed by class id. A class is present, with
    finite moments, when it is in ``classes`` (class ids, or an (8,) bool
    mask) and its mass reaches the floor; otherwise its moments are nan,
    since they are divided by a mass that is nan on its row. The (8, N)
    probabilities times the (N, 10) grid basis give each class's mass and
    its raw first and second moments about the grid centre; ``raw``, when
    given, is that (8, 10) product as the caller summed it, and ``p`` then
    only lends its grid (any volume with dims, spacing and offset). An
    (8, 4) ``raw``, the product with the rows 1, u, v, w alone, gives the
    mass and the centroids, and ``second_moment`` is None. ``mu``
    is the centroid relative to the grid centre and the central moment is
    M = R - mu mu^T, each entry computed once and written to both halves,
    so M is exactly symmetric. A ``raw`` with leading axes, (B, 8, 10) for
    a stack of inputs, gives every attribute the same leading axes.
    Taking the moments about the grid centre rather than the world origin
    bounds the cancellation error of M to about eps * |mu|^2 / ||M||,
    relative, however far the grid sits from the origin.
    """

    def __init__(self, p: ProbVolume, classes=range(N_CLASSES), *,
                 raw: np.ndarray | None = None) -> None:
        if raw is None:
            raw = p.data.reshape(N_CLASSES, -1) @ grid_basis(p.dims, p.spacing).T
        self.mass = raw[..., 0]
        if not (isinstance(classes, np.ndarray) and classes.dtype == bool):
            ids, classes = classes, np.zeros(N_CLASSES, dtype=bool)
            classes[list(ids)] = True
        self.present = classes & (self.mass >= MASS_EPSILON)
        mass = np.where(self.present, self.mass, np.nan)[..., None]
        first = raw[..., 1:4]
        self.mu = first / mass
        self.second_moment = None
        if raw.shape[-1] > 4:
            # (sum p u_a u_b - sum p u_a * mu_b) / mass, once per pair (a, b)
            quadratic = (raw[..., 4:]
                         - first.take(_QA, axis=-1) * self.mu.take(_QB, axis=-1)) / mass
            # take, not quadratic[:, _SYM]: that gives a strided M, and sums
            # over a strided M add in another order
            self.second_moment = quadratic.take(_SYM, axis=-1).reshape(*mass.shape[:-1], 3, 3)
        centre = [o + s * ((n - 1) / 2.0) for o, s, n in zip(p.offset, p.spacing, p.dims)]
        self.centroid = self.mu + centre


def _class_moments(p: ProbVolume, c: int) -> SoftMoments:
    mom = SoftMoments(p, (c,))
    if not mom.present[c]:
        raise VanishingMass(f"class {c} has soft mass {mom.mass[c]:g} < {MASS_EPSILON:g}")
    return mom


def soft_mass(p: ProbVolume, c: int) -> float:
    """Total probability mass of class c, in voxels."""
    return float(SoftMoments(p, ()).mass[c])


def soft_volume(p: ProbVolume, c: int) -> float:
    """Soft volume of class c in mm^3."""
    return soft_mass(p, c) * p.voxel_volume


def soft_centroid(p: ProbVolume, c: int) -> np.ndarray:
    """Probability-weighted mean world coordinate of class c (mm)."""
    return _class_moments(p, c).centroid[c]


def soft_second_moment(p: ProbVolume, c: int) -> np.ndarray:
    """Central second moment matrix (3x3, mm^2) of class c."""
    return _class_moments(p, c).second_moment[c]


#: Every relation, as class ids: 21 pairs (i, j) with i < j, and 105
#: triples (i, j, k) with the angle at vertex j and i < k.
PAIRS = np.array([(i, j) for i in FOREGROUND_CLASSES for j in FOREGROUND_CLASSES if i < j])
TRIPLES = np.array([
    (i, j, k) for j in FOREGROUND_CLASSES
    for i in FOREGROUND_CLASSES for k in FOREGROUND_CLASSES if j not in (i, k) and i < k
])
#: The same rows as flat indices row * 8 + col into an (8, 8) table: each
#: pair (i, j), and each triple's two segments (i, j) and (k, j).
_PAIR_AT = PAIRS[:, 0] * N_CLASSES + PAIRS[:, 1]
_TRIPLE_IJ = TRIPLES[:, 0] * N_CLASSES + TRIPLES[:, 1]
_TRIPLE_KJ = TRIPLES[:, 2] * N_CLASSES + TRIPLES[:, 1]


def relation_geometry(centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segments, their lengths and the vertex cosines of a centroid constellation.

    ``centroids`` is (8, 3), indexed by class id, nan for an absent class.
    Returns the segment vectors m_a - m_b (8, 8, 3), their lengths (8, 8)
    and the cosine at vertex j of every TRIPLES row (i, j, k). A length
    below MIN_SEGMENT_MM, or touching an absent class, is nan, and so is
    every cosine that uses it: such relations are skipped, not scored.
    Leading axes of ``centroids`` lead every result.
    """
    m = np.asarray(centroids, dtype=np.float64)
    lead = m.shape[:-2]
    seg = m[..., :, None, :] - m[..., None, :, :]
    # what np.linalg.norm(seg, axis=-1) computes for real input
    length = np.sqrt(np.add.reduce(seg * seg, axis=-1))
    length[~(length >= MIN_SEGMENT_MM)] = np.nan
    flat_seg = seg.reshape(*lead, -1, 3)
    flat_len = length.reshape(*lead, -1)
    cos = ((flat_seg.take(_TRIPLE_IJ, axis=-2) * flat_seg.take(_TRIPLE_KJ, axis=-2)).sum(axis=-1)
           / (flat_len.take(_TRIPLE_IJ, axis=-1) * flat_len.take(_TRIPLE_KJ, axis=-1)))
    return seg, length, cos


def relations(centroids: np.ndarray, present: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise distances and vertex cosines of a centroid constellation.

    ``centroids`` has one row per foreground class (class ids 1..7 map to
    rows 0..6). Returns the distance of every PAIRS row (21,) and the
    cosine of every TRIPLES row (105,); a relation touching an absent class
    or a segment below MIN_SEGMENT_MM is nan, as in relation_geometry.
    """
    m = np.full((N_CLASSES, 3), np.nan)
    rows = np.asarray(present, dtype=bool)
    m[1:][rows] = np.asarray(centroids, dtype=np.float64)[rows]
    _, length, cos = relation_geometry(m)
    return length.reshape(-1).take(_PAIR_AT), cos


@dataclass(frozen=True)
class CaseDescriptor:
    """Soft shape descriptors of one case. Classes below the mass floor are absent."""

    soft_volume: np.ndarray  # (8,) mm^3, nan where absent
    soft_centroid: np.ndarray  # (8, 3) mm, nan where absent
    second_moment: np.ndarray  # (8, 3, 3) mm^2, nan where absent
    present: np.ndarray  # (8,) bool
    pair_distance: np.ndarray  # (21,) mm on the PAIRS rows, nan where skipped
    triple_cosine: np.ndarray  # (105,) on the TRIPLES rows, nan where skipped


def case_descriptor(p: ProbVolume) -> CaseDescriptor:
    """Extract all soft descriptors of one probability volume."""
    mom = SoftMoments(p, FOREGROUND_CLASSES)
    present = mom.present
    vols = np.where(present, mom.mass * p.voxel_volume, np.nan)
    # relations are translation invariant: take them about the grid centre
    pair_d, triple_c = relations(mom.mu[1:], present[1:])
    return CaseDescriptor(vols, mom.centroid, mom.second_moment, present, pair_d, triple_c)


@dataclass(frozen=True)
class ShapeStats:
    """Population statistics parameterizing the shape-aware losses.

    Class arrays are indexed by class id, pair arrays by PAIRS row and
    triple arrays by TRIPLES row; entries never observed are nan with
    n = 0. Stds are population (divide-by-n) values.

    Construction copies every array into a read-only one of the same dtype
    and values, and derives from them the masks the losses read: the
    usable classes (n >= 1), the volume-scored classes (usable, with a
    finite std > 0) and the scorable pairs and triples (std > 0 and a
    finite mean). The masks are not constructor arguments, so
    ``dataclasses.replace`` derives them again.
    """

    volume_mean: np.ndarray  # (8,)
    volume_std: np.ndarray  # (8,)
    centroid_mean: np.ndarray  # (8, 3)
    second_moment_mean: np.ndarray  # (8, 3, 3)
    class_n: np.ndarray  # (8,) int
    pair_mean: np.ndarray  # (21,) mm
    pair_std: np.ndarray  # (21,)
    pair_n: np.ndarray  # (21,) int
    triple_mean: np.ndarray  # (105,) cosine
    triple_std: np.ndarray  # (105,)
    triple_n: np.ndarray  # (105,) int
    n_cases: int
    usable: np.ndarray = field(init=False, repr=False, compare=False)  # (8,) bool
    volume_scored: np.ndarray = field(init=False, repr=False, compare=False)  # (8,) bool
    pair_scorable: np.ndarray = field(init=False, repr=False, compare=False)  # (21,) bool
    triple_scorable: np.ndarray = field(init=False, repr=False, compare=False)  # (105,) bool

    def __post_init__(self) -> None:
        def frozen(name, value):
            value = np.array(value)  # a copy, so the caller's array cannot move it
            value.setflags(write=False)
            object.__setattr__(self, name, value)

        for f in fields(self):
            if f.init and f.name != "n_cases":
                frozen(f.name, getattr(self, f.name))
        frozen("usable", self.class_n >= 1)
        frozen("volume_scored", self.usable & np.isfinite(self.volume_std)
               & (self.volume_std > 0.0))
        frozen("pair_scorable", (self.pair_std > 0.0) & np.isfinite(self.pair_mean))
        frozen("triple_scorable", (self.triple_std > 0.0) & np.isfinite(self.triple_mean))

    def class_usable(self, c: int) -> bool:
        return bool(self.usable[c])


def _column_stats(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, population std and count of each column over its finite entries."""
    have = np.isfinite(values)
    mean = np.full(values.shape[1], np.nan)
    std = np.full(values.shape[1], np.nan)
    for t in np.flatnonzero(have.any(axis=0)):
        col = values[have[:, t], t]
        mean[t] = col.mean()
        std[t] = col.std()  # population (divide-by-n)
    return mean, std, have.sum(axis=0)


def aggregate(descriptors: list[CaseDescriptor]) -> ShapeStats:
    """Means and population stds per quantity over the cases where it is present."""
    if not descriptors:
        raise ValueError("need at least one case descriptor")
    vol_mean, vol_std, class_n = _column_stats(np.array([d.soft_volume for d in descriptors]))
    cent_mean = np.full((N_CLASSES, 3), np.nan)
    mom_mean = np.full((N_CLASSES, 3, 3), np.nan)
    for c in np.flatnonzero(class_n):
        have = [d for d in descriptors if d.present[c]]
        cent_mean[c] = np.mean([d.soft_centroid[c] for d in have], axis=0)
        mom_mean[c] = np.mean([d.second_moment[c] for d in have], axis=0)
    return ShapeStats(
        vol_mean, vol_std, cent_mean, mom_mean, class_n,
        *_column_stats(np.array([d.pair_distance for d in descriptors])),
        *_column_stats(np.array([d.triple_cosine for d in descriptors])),
        n_cases=len(descriptors),
    )


def _table_entries(table, key, fields, mean, std, n) -> list[dict]:
    """The observed rows of a relation table as stats.json entries, in sorted key order."""
    return [
        {key: table[t].tolist(), fields[0]: float(mean[t]), fields[1]: float(std[t]),
         "n": int(n[t])}
        for t in np.lexsort(table.T[::-1]) if n[t] > 0
    ]


def save_stats(stats: ShapeStats, path: str | os.PathLike) -> None:
    """Serialize to the versioned stats.json schema (class names included)."""
    doc = {
        "version": __version__,
        "schema": "shape-stats/1",
        "n_cases": stats.n_cases,
        "classes": [
            {
                "id": c,
                "name": CLASS_NAMES[c],
                "n": int(stats.class_n[c]),
                "volume_mean": None if stats.class_n[c] == 0 else stats.volume_mean[c],
                "volume_std": None if stats.class_n[c] == 0 else stats.volume_std[c],
                "centroid_mean": None if stats.class_n[c] == 0 else stats.centroid_mean[c].tolist(),
                "second_moment_mean": (
                    None if stats.class_n[c] == 0 else stats.second_moment_mean[c].ravel().tolist()
                ),
            }
            for c in FOREGROUND_CLASSES
        ],
        "pairs": _table_entries(PAIRS, "pair", ("mean", "std"),
                                stats.pair_mean, stats.pair_std, stats.pair_n),
        "triples": _table_entries(TRIPLES, "triple", ("cos_mean", "cos_std"),
                                  stats.triple_mean, stats.triple_std, stats.triple_n),
    }
    write_json(path, doc)


def _std(value, what: str) -> float:
    """A population std read from a stats file: a finite real >= 0."""
    try:
        std = float(value)
    except (TypeError, ValueError):
        std = math.nan
    if not (math.isfinite(std) and std >= 0.0):
        raise InvalidStats(f"{what} must be finite and >= 0, got {value!r}")
    return std


def _whole(value, what: str, lo: int, hi: int) -> int:
    """A count or class id read from a stats file: a whole number from lo to hi."""
    ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
          and float(value).is_integer() and lo <= value <= hi)
    if not ok:
        raise InvalidStats(f"{what} must be a whole number from {lo} to {hi}, got {value!r}")
    return int(value)


def _table_rows(entries, table, key, fields, n_cases) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, std and n arrays on the table's rows from stats.json entries.

    A key that is not a table row, a row listed twice, or an n outside
    1..n_cases raises InvalidStats.
    """
    row_of = {tuple(k): t for t, k in enumerate(table.tolist())}
    mean = np.full(len(table), np.nan)
    std = np.full(len(table), np.nan)
    n = np.zeros(len(table), dtype=np.int64)
    seen = np.zeros(len(table), dtype=bool)
    for e in entries:
        t = row_of.get(tuple(e[key]))
        if t is None:
            raise InvalidStats(f"{key} {e[key]} is not a row of the relation table")
        if seen[t]:
            raise InvalidStats(f"{key} {e[key]} is listed twice")
        seen[t] = True
        mean[t] = e[fields[0]]
        std[t] = _std(e[fields[1]], f"{fields[1]} of {key} {e[key]}")
        n[t] = _whole(e["n"], f"n of {key} {e[key]}", 1, n_cases)
    return mean, std, n


def load_stats(path: str | os.PathLike) -> ShapeStats:
    """Read stats.json; a bad JSON text, schema, key, class entry, count or std raises InvalidStats.

    Each foreground class has exactly one entry, under its own name. Every
    n is a whole number from 0 to n_cases (an integer >= 1), and at least 1
    where the entry gives a mean.
    """
    doc = read_json(path, "shape-stats/1", InvalidStats)
    vol_mean = np.full(N_CLASSES, np.nan)
    vol_std = np.full(N_CLASSES, np.nan)
    cent_mean = np.full((N_CLASSES, 3), np.nan)
    mom_mean = np.full((N_CLASSES, 3, 3), np.nan)
    class_n = np.zeros(N_CLASSES, dtype=np.int64)
    with json_fields(path, InvalidStats):
        n_cases = _whole(doc["n_cases"], "n_cases", 1, math.inf)
        seen = set()
        for entry in doc["classes"]:
            c = _whole(entry["id"], "class id", 1, N_CLASSES - 1)
            if c in seen:
                raise InvalidStats(f"class {c} is listed twice")
            seen.add(c)
            if CLASS_NAMES[c] != entry["name"]:
                raise InvalidStats(f"class name mismatch for id {c}: {entry['name']!r}")
            has_mean = entry["volume_mean"] is not None
            class_n[c] = _whole(entry["n"], f"n of class {c}", int(has_mean), n_cases)
            if class_n[c] == 0:
                continue
            vol_mean[c] = entry["volume_mean"]
            vol_std[c] = _std(entry["volume_std"], f"volume_std of class {c}")
            cent_mean[c] = entry["centroid_mean"]
            mom_mean[c] = np.asarray(entry["second_moment_mean"]).reshape(3, 3)
        if missing := set(FOREGROUND_CLASSES) - seen:
            raise InvalidStats(f"classes {sorted(missing)} have no entry")
        pairs = _table_rows(doc["pairs"], PAIRS, "pair", ("mean", "std"), n_cases)
        triples = _table_rows(doc["triples"], TRIPLES, "triple", ("cos_mean", "cos_std"), n_cases)
    return ShapeStats(vol_mean, vol_std, cent_mean, mom_mean, class_n, *pairs, *triples, n_cases)

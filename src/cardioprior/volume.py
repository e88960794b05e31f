"""Dense 3D volume data model, class-label conventions, and bit-exact file I/O.

Conventions fixed here and binding everywhere else in the package:

* ``Volume3.data`` is indexed ``[x, y, z]``; the on-disk flat order is
  x-fastest, i.e. ``index = x + nx * (y + ny * z)`` (Fortran raveling of the
  in-memory array).
* Voxel ``(i, j, k)`` has its center at world position
  ``offset + spacing * (i, j, k)`` in millimeters.
* The class roster is frozen at background + 7 foreground structures; files
  that carry per-class content serialize class *names* so misordered files
  are detectable.
* Per-voxel class probabilities are held as float64 in memory.

The file format is a MetaImage-style text header (``.mhd``) plus a raw
little-endian payload; parsing is strict (unknown keys are rejected) so a
round trip is bit-exact.

Every file the package writes is committed by :func:`write_file`: the bytes
go to a hidden temporary file in the target's directory, which then
replaces the target in one rename. An interrupted or failed write leaves
either no file or the old one, never a partial file, and any ``OSError``
becomes :class:`IoFailure`. JSON outputs share one format,
:func:`write_json`. A volume's payload is committed before its header, so a
header never names a missing or short payload.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from .errors import (
    CardioPriorError,
    InvalidLabelValue,
    InvalidParameter,
    InvalidSpacing,
    IoFailure,
    MalformedHeader,
    SizeMismatch,
    UnsupportedElementType,
)

#: Frozen class roster: index is the ClassId. 0 is background.
CLASS_NAMES: tuple[str, ...] = (
    "background",
    "LV",
    "RV",
    "LA",
    "RA",
    "myocardium",
    "ascending_aorta",
    "pulmonary_artery",
)

N_CLASSES = len(CLASS_NAMES)  # 8
FOREGROUND_CLASSES: tuple[int, ...] = tuple(range(1, N_CLASSES))

_ELEMENT_TYPES = {
    "MET_UCHAR": np.dtype("<u1"),
    "MET_FLOAT": np.dtype("<f4"),
    "MET_DOUBLE": np.dtype("<f8"),
}
_KIND_TO_ELEMENT = {"UInt8": "MET_UCHAR", "Float32": "MET_FLOAT", "Float64": "MET_DOUBLE"}
_DTYPE_TO_KIND = {np.dtype("u1"): "UInt8", np.dtype("f4"): "Float32", np.dtype("f8"): "Float64"}

_HEADER_KEYS = ("NDims", "DimSize", "ElementSpacing", "Offset", "ElementType", "ElementDataFile")


@dataclass(frozen=True)
class Volume3:
    """Dense 3D scalar grid with spacing/offset metadata.

    ``data`` is a 3-D array indexed ``[x, y, z]`` whose dtype is one of
    uint8, float32, float64. Instances are treated as immutable values.
    """

    data: np.ndarray
    spacing: tuple[float, float, float]
    offset: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        arr = np.asarray(self.data)
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise InvalidParameter(f"volume data must be 3-D and non-empty, got shape {arr.shape}")
        if arr.dtype not in _DTYPE_TO_KIND:
            raise UnsupportedElementType(f"unsupported volume dtype {arr.dtype}")
        object.__setattr__(self, "data", arr)
        _set_geometry(self)
        if arr.dtype == np.uint8 and arr.size and int(arr.max()) >= N_CLASSES:
            raise InvalidLabelValue(
                f"label volume contains value {int(arr.max())}, valid ids are 0..{N_CLASSES - 1}"
            )

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def element_kind(self) -> str:
        return _DTYPE_TO_KIND[self.data.dtype]

    @property
    def voxel_volume(self) -> float:
        """Volume of one voxel in mm^3."""
        sx, sy, sz = self.spacing
        return sx * sy * sz


@dataclass(frozen=True)
class ProbVolume:
    """Per-voxel class probability grid: ``data`` has shape (8, nx, ny, nz), float64."""

    data: np.ndarray
    spacing: tuple[float, float, float]
    offset: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        # C order, so that every (8, n_voxels) reshape of the data or of a
        # gradient buffer shaped like it is a view, never a copy
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim != 4 or arr.shape[0] != N_CLASSES:
            raise ValueError(f"probability data must have shape (8, nx, ny, nz), got {arr.shape}")
        object.__setattr__(self, "data", arr)
        _set_geometry(self)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape[1:]  # type: ignore[return-value]

    @property
    def voxel_volume(self) -> float:
        sx, sy, sz = self.spacing
        return sx * sy * sz

    def validate(self, tol: float = 1e-6) -> None:
        """Check the probability invariants: entries in [0, 1], voxel sums = 1 +- tol."""
        if self.data.min() < -tol or self.data.max() > 1.0 + tol:
            raise ValueError("probabilities outside [0, 1]")
        sums = self.data.sum(axis=0)
        if np.abs(sums - 1.0).max() > tol:
            raise ValueError("per-voxel class probabilities do not sum to 1")


def _set_geometry(v: Volume3 | ProbVolume) -> None:
    """Store spacing and offset as float triples: finite, spacing positive."""
    spacing = tuple(float(s) for s in v.spacing)
    if len(spacing) != 3 or not all(math.isfinite(s) and s > 0.0 for s in spacing):
        raise InvalidSpacing(f"spacing must be 3 finite positive reals, got {v.spacing}")
    offset = tuple(float(o) for o in v.offset)
    if len(offset) != 3 or not all(math.isfinite(o) for o in offset):
        raise InvalidSpacing(f"offset must be 3 finite reals, got {v.offset}")
    object.__setattr__(v, "spacing", spacing)
    object.__setattr__(v, "offset", offset)


def voxel_center_grid(
    dims: tuple[int, int, int],
    spacing: tuple[float, float, float],
    offset: tuple[float, float, float],
) -> np.ndarray:
    """World coordinates of all voxel centers on a grid, shape (3, nx, ny, nz)."""
    out = np.empty((3,) + tuple(dims), dtype=np.float64)
    for a in range(3):
        line = offset[a] + spacing[a] * np.arange(dims[a], dtype=np.float64)
        out[a] = line.reshape([-1 if b == a else 1 for b in range(3)])
    return out


def one_hot(labels: Volume3) -> ProbVolume:
    """Expand a UInt8 label volume to per-voxel one-hot class probabilities.

    Raises InvalidLabelValue if any voxel is outside the fixed class roster.
    """
    if labels.data.dtype != np.uint8:
        raise InvalidLabelValue("one_hot expects a UInt8 label volume")
    lab = labels.data
    if lab.max(initial=0) >= N_CLASSES:
        raise InvalidLabelValue(f"label value {int(lab.max())} outside 0..{N_CLASSES - 1}")
    out = np.zeros((N_CLASSES,) + lab.shape, dtype=np.float64)
    for c in range(N_CLASSES):
        out[c][lab == c] = 1.0
    return ProbVolume(out, labels.spacing, labels.offset)


def argmax_labels(p: ProbVolume) -> Volume3:
    """Hard labels from probabilities; ties resolve to the smallest class id."""
    lab = np.argmax(p.data, axis=0).astype(np.uint8)
    return Volume3(lab, p.spacing, p.offset)


def _format_triple(values) -> str:
    return " ".join(repr(float(v)) if not float(v).is_integer() else str(int(v)) for v in values)


def write_file(path: str | os.PathLike, data: bytes) -> None:
    """Commit ``data`` to ``path`` whole, or raise IoFailure and leave ``path`` as it was.

    Writes ``.<name>.<random>.tmp`` beside the target, with the mode that
    ``open(path, "w")`` gives (an existing target's mode, else
    ``0o666 & ~umask``), and renames it over the target. A symlinked target
    is resolved, so the file it points to is replaced. The owner is the
    writer's. Nothing is synced to disk: this covers an interrupted process,
    not a power loss.
    """
    path = os.fspath(path)
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        os.makedirs(directory, exist_ok=True)
        with open(tmp, "xb") as fh:
            with suppress(FileNotFoundError):
                os.fchmod(fh.fileno(), os.stat(target).st_mode & 0o7777)
            fh.write(data)
        os.replace(tmp, target)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    finally:
        with suppress(OSError):
            os.remove(tmp)  # gone after a successful rename


def check_output_dir(path: str | os.PathLike) -> None:
    """Raise IoFailure unless ``path`` is, or can be made, a writable directory.

    The nearest existing path on the way up must be a directory that this
    process may write. Nothing is created, so a later failure leaves no trace.
    """
    probe = os.path.abspath(path)
    while not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if not (os.path.isdir(probe) and os.access(probe, os.W_OK | os.X_OK)):
        raise IoFailure(f"cannot write to {path}: {probe} is not a writable directory")


def write_json(path: str | os.PathLike, doc) -> str:
    """Commit ``doc`` as indented, key-sorted JSON plus a newline; returns the text."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    write_file(path, text.encode("utf-8"))
    return text


def write_volume(v: Volume3, path: str | os.PathLike) -> tuple[str, str]:
    """Write ``<path>`` (.mhd header) plus a sibling ``.raw`` payload.

    The payload is raw little-endian in x-fastest order so that
    ``read_volume`` inverts the write bit-exactly. It is committed before
    the header. Returns the (header, payload) paths.
    """
    path = os.fspath(path)
    if not path.endswith(".mhd"):
        path = path + ".mhd"
    raw_name = os.path.basename(path)[:-4] + ".raw"
    raw_path = os.path.join(os.path.dirname(path), raw_name)
    header = (
        f"NDims = 3\n"
        f"DimSize = {v.dims[0]} {v.dims[1]} {v.dims[2]}\n"
        f"ElementSpacing = {_format_triple(v.spacing)}\n"
        f"Offset = {_format_triple(v.offset)}\n"
        f"ElementType = {_KIND_TO_ELEMENT[v.element_kind]}\n"
        f"ElementDataFile = {raw_name}\n"
    )
    payload = np.ascontiguousarray(v.data.ravel(order="F")).astype(
        _ELEMENT_TYPES[_KIND_TO_ELEMENT[v.element_kind]], copy=False
    )
    write_file(raw_path, payload.tobytes())
    write_file(path, header.encode("utf-8"))
    return path, raw_path


def _read_header(path: str) -> tuple[tuple, tuple, tuple, np.dtype, str]:
    """(dims, spacing, offset, dtype, payload path) from a strict header parse."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IoFailure(f"cannot read header {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedHeader(f"header {path} is not UTF-8 text: {exc}") from exc

    fields: dict[str, str] = {}
    for line in lines:
        if not line.strip():
            continue
        if "=" not in line:
            raise MalformedHeader(f"line without 'Key = value' form: {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _HEADER_KEYS:
            raise MalformedHeader(f"unknown header key {key!r}")
        if key in fields:
            raise MalformedHeader(f"duplicate header key {key!r}")
        fields[key] = value.strip()
    missing = [k for k in _HEADER_KEYS if k not in fields]
    if missing:
        raise MalformedHeader(f"missing mandatory header keys: {missing}")

    if fields["NDims"] != "3":
        raise MalformedHeader(f"NDims must be 3, got {fields['NDims']!r}")
    try:
        dims = tuple(int(t) for t in fields["DimSize"].split())
        spacing = tuple(float(t) for t in fields["ElementSpacing"].split())
        offset = tuple(float(t) for t in fields["Offset"].split())
    except ValueError as exc:
        raise MalformedHeader(f"unparseable numeric header field: {exc}") from exc
    if len(dims) != 3 or len(spacing) != 3 or len(offset) != 3:
        raise MalformedHeader("DimSize/ElementSpacing/Offset must have 3 components")
    if any(d < 1 for d in dims):
        raise MalformedHeader(f"DimSize components must be positive, got {dims}")

    eltype = fields["ElementType"]
    if eltype not in _ELEMENT_TYPES:
        raise UnsupportedElementType(f"ElementType {eltype!r} not supported")

    data_file = fields["ElementDataFile"]
    if data_file in ("", ".", "..") or any(ch in data_file for ch in "/\\\x00"):
        raise MalformedHeader(f"ElementDataFile must be a bare file name, got {data_file!r}")
    raw_path = os.path.join(os.path.dirname(path), data_file)
    return dims, spacing, offset, _ELEMENT_TYPES[eltype], raw_path


def payload_path(path: str | os.PathLike) -> str:
    """The payload file that the ElementDataFile of the header at ``path`` names."""
    return _read_header(os.fspath(path))[4]


def read_volume(path: str | os.PathLike) -> Volume3:
    """Read an .mhd header + raw payload pair written by :func:`write_volume`.

    Strict parse: unknown or missing keys raise MalformedHeader, and so does
    an ElementDataFile that is not a bare file name beside the header;
    unknown element types raise UnsupportedElementType, and a payload whose
    byte length disagrees with DimSize raises SizeMismatch.
    """
    path = os.fspath(path)
    dims, spacing, offset, dtype, raw_path = _read_header(path)
    try:
        with open(raw_path, "rb") as fh:
            payload = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read payload {raw_path}: {exc}") from exc

    expected = dims[0] * dims[1] * dims[2] * dtype.itemsize
    if len(payload) != expected:
        raise SizeMismatch(
            f"payload is {len(payload)} bytes, header implies {expected} "
            f"({dims[0]}x{dims[1]}x{dims[2]} x {dtype.itemsize}B)"
        )
    flat = np.frombuffer(payload, dtype=dtype)
    data = flat.reshape(dims, order="F").astype(dtype.newbyteorder("="), copy=True)
    return Volume3(data, spacing, offset)


def read_json(path: str | os.PathLike, schema: str | None,
              error: type[CardioPriorError]) -> dict:
    """One JSON object from a UTF-8 file, checked against its schema tag.

    An unreadable file raises IoFailure; text that is not UTF-8 JSON, a
    document that is not an object, or a ``schema`` other than the one
    given (when one is given) raises ``error``.
    """
    try:
        with open(os.fspath(path), "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise error(f"{path} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path} does not hold a JSON object")
    if schema is not None and doc.get("schema") != schema:
        raise error(f"unrecognized schema {doc.get('schema')!r} in {path}, expected {schema!r}")
    return doc


@contextmanager
def json_fields(path: str | os.PathLike, error: type[CardioPriorError]):
    """Raise ``error`` for a key missing from, or a malformed value in, a JSON input.

    Wraps the code that reads fields out of a document from :func:`read_json`:
    a ``KeyError`` names the missing key, and a ``TypeError``, ``ValueError``,
    ``AttributeError``, ``IndexError`` or ``OverflowError`` from a value of
    the wrong type, shape or size becomes ``error`` too.
    """
    try:
        yield
    except KeyError as exc:
        raise error(f"{path} lacks the key {exc}") from exc
    except (TypeError, ValueError, AttributeError, IndexError, OverflowError) as exc:
        raise error(f"{path} holds a malformed value: {exc}") from exc

import json
import os
import stat

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cardioprior import (
    CLASS_NAMES,
    N_CLASSES,
    CardioPriorError,
    InvalidLabelValue,
    InvalidSpacing,
    IoFailure,
    MalformedHeader,
    ProbVolume,
    SizeMismatch,
    UnsupportedElementType,
    Volume3,
    argmax_labels,
    one_hot,
    read_volume,
    voxel_center_grid,
    write_volume,
)
from cardioprior.volume import payload_path, write_file, write_json
from conftest import label_volume


def write_pair(tmp_path, header, payload, name="vol"):
    (tmp_path / f"{name}.mhd").write_text(header)
    (tmp_path / f"{name}.raw").write_bytes(payload)
    return tmp_path / f"{name}.mhd"


GOOD_HEADER = (
    "NDims = 3\n"
    "DimSize = 2 2 2\n"
    "ElementSpacing = 1 1 1\n"
    "Offset = 0 0 0\n"
    "ElementType = MET_UCHAR\n"
    "ElementDataFile = vol.raw\n"
)


class TestRoster:
    def test_frozen_roster(self):
        assert N_CLASSES == 8
        assert CLASS_NAMES[0] == "background"
        assert CLASS_NAMES[3] == "LA"
        assert CLASS_NAMES[7] == "pulmonary_artery"


class TestOneHot:
    def test_all_background(self):
        p = one_hot(label_volume(np.zeros((3, 3, 3))))
        assert (p.data[0] == 1.0).all()
        assert (p.data[1:] == 0.0).all()

    def test_single_voxel_basis_vector(self):
        lab = np.zeros((3, 3, 3), dtype=np.uint8)
        lab[1, 2, 0] = 3
        p = one_hot(label_volume(lab))
        vec = p.data[:, 1, 2, 0]
        expected = np.zeros(N_CLASSES)
        expected[3] = 1.0
        assert (vec == expected).all()

    def test_class_sums_exactly_one(self, rng):
        lab = rng.integers(0, N_CLASSES, size=(9, 7, 5)).astype(np.uint8)
        p = one_hot(label_volume(lab))
        sums = p.data.sum(axis=0)
        flat = sums.reshape(-1)
        picks = rng.integers(0, flat.size, size=1000)
        assert (flat[picks] == 1.0).all()

    def test_rejects_non_uint8(self):
        v = Volume3(np.zeros((3, 3, 3), dtype=np.float32), (1, 1, 1))
        with pytest.raises(InvalidLabelValue):
            one_hot(v)


class TestArgmax:
    def test_inverse_of_one_hot(self, rng):
        lab = rng.integers(0, N_CLASSES, size=(6, 5, 4)).astype(np.uint8)
        v = label_volume(lab, spacing=(2.0, 1.0, 0.5), offset=(-3.0, 0.0, 1.0))
        back = argmax_labels(one_hot(v))
        assert (back.data == lab).all()
        assert back.spacing == v.spacing and back.offset == v.offset

    def test_uniform_ties_to_background(self):
        p = ProbVolume(np.full((8, 2, 2, 2), 0.125), (1, 1, 1))
        assert (argmax_labels(p).data == 0).all()

    def test_tie_picks_smaller_id(self):
        data = np.full((8, 1, 1, 1), 0.1 / 6)
        data[1] = 0.4
        data[2] = 0.4
        data[0] = 0.1
        # renormalize the leftovers; the tie between classes 1 and 2 is what matters
        p = ProbVolume(data, (1, 1, 1))
        assert argmax_labels(p).data[0, 0, 0] == 1


class TestVolume3Validation:
    def test_rejects_label_value_out_of_roster(self):
        bad = np.zeros((2, 2, 2), dtype=np.uint8)
        bad[0, 0, 0] = 8
        with pytest.raises(InvalidLabelValue):
            Volume3(bad, (1, 1, 1))

    def test_rejects_bad_spacing(self):
        with pytest.raises(InvalidSpacing):
            Volume3(np.zeros((2, 2, 2), dtype=np.uint8), (1.0, 0.0, 1.0))

    @pytest.mark.parametrize("spacing, offset", [
        ((1.0, np.nan, 1.0), (0.0, 0.0, 0.0)),
        ((np.inf, 1.0, 1.0), (0.0, 0.0, 0.0)),
        ((1.0, 1.0, 1.0), (np.inf, 0.0, 0.0)),
        ((1.0, 1.0, 1.0), (0.0, np.nan, 0.0)),
    ])
    def test_rejects_nonfinite_geometry(self, spacing, offset):
        with pytest.raises(InvalidSpacing):
            Volume3(np.zeros((2, 2, 2), dtype=np.uint8), spacing, offset)
        with pytest.raises(InvalidSpacing):
            ProbVolume(np.full((N_CLASSES, 2, 2, 2), 0.125), spacing, offset)
        assert issubclass(InvalidSpacing, CardioPriorError)

    def test_rejects_unsupported_dtype(self):
        with pytest.raises(UnsupportedElementType):
            Volume3(np.zeros((2, 2, 2), dtype=np.int32), (1, 1, 1))

    def test_voxel_volume(self):
        v = Volume3(np.zeros((2, 2, 2), dtype=np.uint8), (2.0, 1.5, 0.5))
        assert v.voxel_volume == pytest.approx(1.5)

    def test_world_coordinates_corner_and_step(self):
        v = Volume3(np.zeros((3, 3, 3), dtype=np.uint8), (2.0, 1.0, 0.5), (-1.0, 0.0, 4.0))
        xyz = voxel_center_grid(v.dims, v.spacing, v.offset)
        assert xyz.shape == (3, 3, 3, 3)
        assert tuple(xyz[:, 0, 0, 0]) == (-1.0, 0.0, 4.0)
        assert tuple(xyz[:, 1, 2, 1]) == (1.0, 2.0, 4.5)

    def test_voxel_center_grid_equals_meshgrid(self):
        dims, spacing, offset = (5, 3, 7), (0.7, 1.3, 2.9), (-3.1, 0.25, 11.0)
        xyz = voxel_center_grid(dims, spacing, offset)
        lines = [offset[a] + spacing[a] * np.arange(dims[a], dtype=np.float64) for a in range(3)]
        ref = np.stack(np.meshgrid(*lines, indexing="ij"))
        assert xyz.shape == ref.shape and xyz.tobytes() == ref.tobytes()
        assert xyz.dtype == np.float64
        assert xyz.flags.c_contiguous and xyz.flags.writeable


class TestProbVolumeLayout:
    def test_data_is_c_contiguous(self, rng):
        data = np.asfortranarray(rng.uniform(size=(N_CLASSES, 3, 4, 5)))
        p = ProbVolume(data, (1, 1, 1))
        assert p.data.flags.c_contiguous
        assert (p.data == data).all()


class TestProbVolumeValidate:
    def test_accepts_one_hot(self, rng):
        lab = rng.integers(0, 8, size=(4, 4, 4)).astype(np.uint8)
        one_hot(label_volume(lab)).validate()

    def test_rejects_bad_sums(self):
        data = np.zeros((8, 2, 2, 2))
        data[0] = 0.7
        with pytest.raises(ValueError):
            ProbVolume(data, (1, 1, 1)).validate()


class TestReadVolume:
    def test_zero_payload_is_all_background(self, tmp_path):
        path = write_pair(tmp_path, GOOD_HEADER, bytes(8))
        v = read_volume(path)
        assert v.dims == (2, 2, 2)
        assert v.data.dtype == np.uint8
        assert (v.data == 0).all()

    def test_short_payload(self, tmp_path):
        path = write_pair(tmp_path, GOOD_HEADER, bytes(7))
        with pytest.raises(SizeMismatch):
            read_volume(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_pair(tmp_path, GOOD_HEADER + "CompressedData = False\n", bytes(8))
        with pytest.raises(MalformedHeader):
            read_volume(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_pair(tmp_path, GOOD_HEADER + "NDims = 3\n", bytes(8))
        with pytest.raises(MalformedHeader):
            read_volume(path)

    def test_missing_key_rejected(self, tmp_path):
        header = "\n".join(GOOD_HEADER.splitlines()[:-1]) + "\n"
        path = write_pair(tmp_path, header, bytes(8))
        with pytest.raises(MalformedHeader):
            read_volume(path)

    def test_ndims_must_be_3(self, tmp_path):
        path = write_pair(tmp_path, GOOD_HEADER.replace("NDims = 3", "NDims = 2"), bytes(8))
        with pytest.raises(MalformedHeader):
            read_volume(path)

    def test_unsupported_element_type(self, tmp_path):
        header = GOOD_HEADER.replace("MET_UCHAR", "MET_SHORT")
        path = write_pair(tmp_path, header, bytes(16))
        with pytest.raises(UnsupportedElementType):
            read_volume(path)

    def test_non_utf8_header_rejected(self, tmp_path):
        path = write_pair(tmp_path, GOOD_HEADER, bytes(8))
        path.write_bytes(b"\xff\xfe" + GOOD_HEADER.encode())
        with pytest.raises(MalformedHeader):
            read_volume(path)

    @pytest.mark.parametrize(
        "name", ["../vol.raw", "sub/vol.raw", "sub\\vol.raw", "..", ".", "vol\x00.raw"]
    )
    def test_data_file_must_be_a_bare_name(self, tmp_path, name):
        inner = tmp_path / "inner"
        (inner / "sub").mkdir(parents=True)
        for d in (tmp_path, inner, inner / "sub"):
            (d / "vol.raw").write_bytes(bytes(8))
        path = write_pair(inner, GOOD_HEADER.replace("vol.raw", name), bytes(8))
        with pytest.raises(MalformedHeader, match="bare file name"):
            read_volume(path)

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        edits=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 12), st.integers(0, 3),
                                 st.text(max_size=3)), max_size=2),
        junk=st.binary(max_size=4),
        payload=st.binary(max_size=80),
    )
    def test_mutated_inputs_fail_typed(self, tmp_path, edits, junk, payload):
        # splice text into header values, append raw bytes and vary the
        # payload: every failure must be a CardioPriorError
        lines = GOOD_HEADER.splitlines()
        for line, at, cut, insert in edits:
            key, _, value = lines[line].partition(" = ")
            lines[line] = f"{key} = {value[:at]}{insert}{value[at + cut:]}"
        path = write_pair(tmp_path, "", payload)
        path.write_bytes("\n".join(lines).encode() + junk)
        try:
            read_volume(path)
        except CardioPriorError:
            pass

    def test_payload_order_is_x_fastest(self, tmp_path):
        # index = x + nx*(y + ny*z)
        payload = bytes(range(8))
        v = read_volume(write_pair(tmp_path, GOOD_HEADER, payload))
        assert v.data[1, 0, 0] == 1
        assert v.data[0, 1, 0] == 2
        assert v.data[0, 0, 1] == 4
        assert v.data[1, 1, 1] == 7


class TestWriteVolume:
    def test_round_trip_float32_bit_identical(self, rng, tmp_path):
        data = rng.standard_normal((5, 4, 3)).astype(np.float32)
        v = Volume3(data, (0.7, 1.1, 2.3), (-4.0, 0.5, 9.0))
        write_volume(v, tmp_path / "case.mhd")
        back = read_volume(tmp_path / "case.mhd")
        assert back.data.dtype == np.float32
        assert back.data.tobytes() == data.tobytes()
        assert back.spacing == v.spacing
        assert back.offset == v.offset

    def test_spacing_header_line(self, tmp_path):
        v = Volume3(np.zeros((2, 2, 2), dtype=np.uint8), (1.5, 1.5, 1.5))
        write_volume(v, tmp_path / "sp.mhd")
        text = (tmp_path / "sp.mhd").read_text()
        assert "ElementSpacing = 1.5 1.5 1.5" in text.splitlines()

    def test_payload_size_64_cubed(self, tmp_path):
        v = Volume3(np.zeros((64, 64, 64), dtype=np.uint8), (1.0, 1.0, 1.0))
        write_volume(v, tmp_path / "big.mhd")
        assert (tmp_path / "big.raw").stat().st_size == 262144

    def test_written_payload_is_fortran_order(self, tmp_path):
        data = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
        write_volume(Volume3(data, (1, 1, 1)), tmp_path / "ord.mhd")
        assert (tmp_path / "ord.raw").read_bytes() == data.ravel(order="F").tobytes()

    @settings(max_examples=25, deadline=None)
    @given(
        dims=st.tuples(*[st.integers(1, 5)] * 3),
        kind=st.sampled_from(["u1", "f4", "f8"]),
        seed=st.integers(0, 2**31),
    )
    def test_round_trip_identity(self, dims, kind, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        if kind == "u1":
            data = rng.integers(0, 8, size=dims).astype(np.uint8)
        else:
            data = rng.standard_normal(dims).astype(kind)
        v = Volume3(data, tuple(rng.uniform(0.4, 3.0, 3)), tuple(rng.uniform(-5, 5, 3)))
        d = tmp_path_factory.mktemp("rt")
        write_volume(v, d / "v.mhd")
        back = read_volume(d / "v.mhd")
        assert back.data.tobytes() == v.data.tobytes()
        assert back.data.dtype == v.data.dtype
        assert back.spacing == v.spacing and back.offset == v.offset


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


class TestWriteFile:
    """Outputs are committed whole by one temp-file-plus-rename writer."""

    @pytest.mark.parametrize("old", [None, b"old bytes\n"])
    def test_failed_replace_keeps_old_file_and_no_temp(self, tmp_path, monkeypatch, old):
        target = tmp_path / "out.json"
        if old is not None:
            target.write_bytes(old)

        def replace(src, dst):
            raise PermissionError(13, "refused", dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(IoFailure, match="out.json"):
            write_file(target, b"new bytes\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if old is None else ["out.json"])
        if old is not None:
            assert target.read_bytes() == old

    def test_mode_is_what_open_for_writing_gives(self, tmp_path):
        write_file(tmp_path / "a.txt", b"x")
        assert stat.S_IMODE((tmp_path / "a.txt").stat().st_mode) == 0o666 & ~_umask()

    def test_existing_target_keeps_its_mode(self, tmp_path):
        target = tmp_path / "a.txt"
        target.write_bytes(b"old")
        target.chmod(0o640)
        write_file(target, b"new")
        assert target.read_bytes() == b"new"
        assert stat.S_IMODE(target.stat().st_mode) == 0o640

    def test_symlinked_target_is_written_through(self, tmp_path):
        (tmp_path / "real").mkdir()
        (tmp_path / "real" / "a.txt").write_bytes(b"old")
        link = tmp_path / "a.txt"
        link.symlink_to(tmp_path / "real" / "a.txt")
        write_file(link, b"new")
        assert link.is_symlink()
        assert (tmp_path / "real" / "a.txt").read_bytes() == b"new"
        assert sorted(p.name for p in (tmp_path / "real").iterdir()) == ["a.txt"]

    def test_creates_parent_directories(self, tmp_path):
        write_file(tmp_path / "a" / "b" / "c.txt", b"x")
        assert (tmp_path / "a" / "b" / "c.txt").read_bytes() == b"x"

    def test_json_format(self, tmp_path):
        doc = {"b": [1.5, None], "a": {"z": "t", "y": float("nan")}}
        text = write_json(tmp_path / "d.json", doc)
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "d.json").read_bytes() == text.encode("utf-8")

    def test_volume_header_never_without_its_payload(self, tmp_path):
        (tmp_path / "v.raw").mkdir()  # the payload cannot be committed
        with pytest.raises(IoFailure):
            write_volume(Volume3(np.ones((2, 2, 2), dtype=np.uint8), (1.0, 1.0, 1.0)),
                         tmp_path / "v.mhd")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v.raw"]

    def test_write_volume_returns_both_paths(self, tmp_path):
        paths = write_volume(Volume3(np.ones((2, 2, 2), dtype=np.uint8), (1.0, 1.0, 1.0)),
                             tmp_path / "v")
        assert paths == (str(tmp_path / "v.mhd"), str(tmp_path / "v.raw"))
        assert payload_path(paths[0]) == paths[1]
        assert all(os.path.getsize(p) > 0 for p in paths)

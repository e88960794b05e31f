import contextlib
import hashlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardioprior import (
    GRADCHECK_LOSSES,
    InvalidAtlas,
    InvalidStats,
    Volume3,
    __version__,
    load_atlas,
    load_model,
    load_stats,
    read_volume,
    write_volume,
)
from cardioprior import cli
from cardioprior.cli import main

MANIFEST_KEYS = {"command", "version", "timestamp", "parameters", "inputs", "outputs"}


def copy_pair(src_mhd, dst_dir):
    dst_dir.mkdir(exist_ok=True)
    shutil.copy(src_mhd, dst_dir / src_mhd.name)
    raw = src_mhd.with_suffix(".raw")
    shutil.copy(raw, dst_dir / raw.name)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small end-to-end CLI run shared by the smoke tests below."""
    root = tmp_path_factory.mktemp("cli")
    dirs = {
        "train": root / "train",
        "test": root / "test",
        "labels": root / "labels",
        "gt": root / "gt",
        "stats": root / "stats",
        "atlas": root / "atlas",
        "run": root / "run",
        "eval": root / "baseline",
        "report": root / "report",
    }
    assert main(["phantom", "--n", "2", "--size", "24", "--spacing", "4.0",
                 "--out", str(dirs["train"])]) == 0
    assert main(["phantom", "--n", "1", "--seed", "9", "--size", "24", "--spacing", "4.0",
                 "--out", str(dirs["test"])]) == 0
    for f in sorted(dirs["train"].glob("case_*_label.mhd")):
        copy_pair(f, dirs["labels"])
    copy_pair(dirs["test"] / "case_000_label.mhd", dirs["gt"])
    stats_path = dirs["stats"] / "shape_stats.json"
    assert main(["stats", "--labels", str(dirs["labels"]), "--out", str(stats_path)]) == 0
    assert main(["atlas", "--labels", str(dirs["labels"]), "--out", str(dirs["atlas"]),
                 "--size", "24", "--spacing", "4.0"]) == 0
    assert main(["train", "--data", str(dirs["train"]), "--stats", str(stats_path),
                 "--atlas", str(dirs["atlas"]), "--epochs", "3",
                 "--out", str(dirs["run"]), "--test-data", str(dirs["test"])]) == 0
    assert main(["eval", "--pred", str(dirs["run"]), "--gt", str(dirs["gt"]),
                 "--out", str(dirs["eval"])]) == 0
    assert main(["report", "--runs", str(dirs["eval"]), "--out", str(dirs["report"])]) == 0
    dirs["stats_path"] = stats_path
    return dirs


class TestPipelineSmoke:
    def test_phantom_outputs(self, pipeline):
        d = pipeline["train"]
        for name in ("case_000_image.mhd", "case_000_image.raw", "case_001_label.mhd",
                     "dataset.json", "manifest.json"):
            assert (d / name).exists()
        dataset = json.loads((d / "dataset.json").read_text())
        assert dataset["n_cases"] == 2
        assert dataset["cases"][1]["labels"] == "case_001_label.mhd"

    def test_manifest_layout(self, pipeline):
        doc = json.loads((pipeline["train"] / "manifest.json").read_text())
        assert set(doc) == MANIFEST_KEYS
        assert doc["command"] == "phantom"
        assert doc["version"] == __version__
        assert doc["outputs"] == sorted(doc["outputs"])
        assert doc["parameters"]["n"] == 2

    def test_stats_file_loads(self, pipeline):
        stats = load_stats(pipeline["stats_path"])
        assert stats.n_cases == 2
        assert int(stats.class_n[1]) == 2  # LV present in both cases

    def test_atlas_dir_loads(self, pipeline):
        atlas = load_atlas(pipeline["atlas"])
        assert atlas.case_count == 2
        sums = atlas.heatmaps.sum(axis=0)
        assert np.abs(sums - 1.0).max() < 1e-6

    def test_train_outputs(self, pipeline):
        run = pipeline["run"]
        model = load_model(run / "model.json")
        assert model.aux_weights is None
        assert (model.weights != 0.0).any()
        header = (run / "trace.csv").read_text().splitlines()[0]
        assert header.startswith("epoch,total")
        assert (run / "case_000_pred.mhd").exists()
        pred = read_volume(run / "case_000_pred.mhd")
        assert pred.dims == (24, 24, 24)

    def test_eval_report_json(self, pipeline):
        doc = json.loads((pipeline["eval"] / "report_case_000_label.json").read_text())
        assert doc["case_id"] == "case_000_label"
        assert set(doc["macro"]) >= {"dice", "jaccard", "hd_mm", "assd_mm"}
        assert 0.0 <= doc["classes"]["LV"]["dice"] <= 1.0

    def test_summary_layout(self, pipeline):
        lines = (pipeline["report"] / "summary.csv").read_text().splitlines()
        assert lines[0] == "method,dice_pct,jaccard_pct,hd_mm,assd_mm"
        assert lines[1].startswith("published_64cube_baseline,90.85,83.63,7.64,1.03")
        assert lines[2].startswith("baseline,")
        for cell in lines[2].split(",")[1:]:
            assert cell == "n/a" or len(cell.split(".")[1]) == 2
        md = (pipeline["report"] / "summary.md").read_text().splitlines()
        assert md[0] == "| Method | Dice (%) | Jaccard (%) | HD (mm) | ASSD (mm) |"


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        rc = main(["phantom", "--n", "1", "--out", str(tmp_path), "--bogus"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: UsageError:")

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1
        assert "UsageError" in capsys.readouterr().err

    def test_missing_input_path(self, tmp_path, capsys):
        rc = main(["stats", "--labels", str(tmp_path / "nope"), "--out",
                   str(tmp_path / "s.json")])
        assert rc == 1
        assert "UsageError" in capsys.readouterr().err

    @pytest.mark.parametrize("bad, error", [
        (b"\xff\xfeNDims = 3\n", "MalformedHeader"),
        (b"ElementSpacing = 1 nan 1\n", "InvalidSpacing"),
        (b"Offset = inf 0 0\n", "InvalidSpacing"),
    ])
    def test_bad_header_is_typed_error(self, tmp_path, capsys, bad, error):
        labels = tmp_path / "labels"
        labels.mkdir()
        write_volume(Volume3(np.ones((4, 4, 4), dtype=np.uint8), (1.0, 1.0, 1.0)),
                     labels / "case_000_label.mhd")
        mhd = labels / "case_000_label.mhd"
        key = bad.split(b" = ")[0].lstrip(b"\xff\xfe")
        lines = mhd.read_bytes().splitlines(keepends=True)
        mhd.write_bytes(b"".join(bad if ln.startswith(key) else ln for ln in lines))
        rc = main(["stats", "--labels", str(labels), "--out", str(tmp_path / "s.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {error}:")

    def test_data_file_outside_header_dir_is_typed_error(self, tmp_path, capsys):
        labels = tmp_path / "labels"
        labels.mkdir()
        write_volume(Volume3(np.ones((4, 4, 4), dtype=np.uint8), (1.0, 1.0, 1.0)),
                     tmp_path / "case_000_label.mhd")
        (labels / "case_000_label.mhd").write_text(
            (tmp_path / "case_000_label.mhd").read_text().replace(
                "= case_000_label.raw", "= ../case_000_label.raw"))
        rc = main(["stats", "--labels", str(labels), "--out", str(tmp_path / "s.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: MalformedHeader:")

    def test_nul_in_data_file_name_is_typed_error(self, tmp_path, capsys):
        labels = tmp_path / "labels"
        labels.mkdir()
        mhd = labels / "case_000_label.mhd"
        write_volume(Volume3(np.ones((4, 4, 4), dtype=np.uint8), (1.0, 1.0, 1.0)), mhd)
        mhd.write_text(mhd.read_text().replace("= case_000_label.raw", "= case_000\x00.raw"))
        rc = main(["stats", "--labels", str(labels), "--out", str(tmp_path / "s.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: MalformedHeader:")

    @pytest.mark.parametrize("doc", [
        {"schema": "loss-config/0", "weights": {}},
        {"schema": "loss-config/1", "weights": {"ce": -1}},
        {"schema": "loss-config/1", "weights": {"bogus": 1.0}},
        {"schema": "loss-config/1", "weights": {"ce": "high"}},
        {"schema": "loss-config/1", "weights": [1.0]},
        {"schema": "loss-config/1"},
        {"schema": "loss-config/1", "weights": {}, "epsilon_gd": 0},
    ])
    def test_invalid_loss_config_is_typed_error(self, pipeline, tmp_path, capsys, doc):
        bad = tmp_path / "loss.json"
        bad.write_text(json.dumps(doc))
        rc = main(["train", "--data", str(pipeline["train"]), "--loss-config", str(bad),
                   "--epochs", "1", "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: InvalidLossConfig:")

    @pytest.mark.parametrize("flag, content, error", [
        ("--stats", None, "IoFailure"),
        ("--loss-config", None, "IoFailure"),
        ("--atlas", None, "IoFailure"),
        ("--stats", b"{not json", "InvalidStats"),
        ("--loss-config", b"\xff\xfe{}", "InvalidLossConfig"),
        ("--atlas", b"[]", "InvalidAtlas"),
    ])
    def test_unreadable_json_input_is_typed_error(self, pipeline, tmp_path, capsys,
                                                  flag, content, error):
        # content None: the file (for --atlas, the atlas.json in the directory) is missing
        path = tmp_path / "input"
        if flag == "--atlas":
            path.mkdir()
        if content is not None:
            (path / "atlas.json" if flag == "--atlas" else path).write_bytes(content)
        rc = main(["train", "--data", str(pipeline["train"]), flag, str(path),
                   "--epochs", "1", "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {error}:")

    @pytest.mark.parametrize("section, key, value", [
        ("classes", "volume_std", -5.0),
        ("classes", "volume_std", float("nan")),
        ("classes", "volume_std", float("inf")),
        ("pairs", "std", -1.0),
        ("triples", "cos_std", float("nan")),
        (None, "schema", "shape-stats/0"),
        ("pairs", "pair", [2, 1]),  # reversed
        ("pairs", "pair", [1, 3]),  # listed twice
        ("triples", "triple", [3, 2, 1]),  # reversed
        ("triples", "triple", [1, 2, 8]),  # no such class
        ("classes", "n", 1e30),  # too large for a count
        ("pairs", "n", 1e30),
        ("classes", "id", -7),  # CLASS_NAMES[-7] is class 1's name
        pytest.param(None, "classes", lambda entries: entries[1:], id="class-1-missing"),
        pytest.param(None, "classes", lambda entries: entries[1:2] + entries[1:],
                     id="class-2-twice"),
        ("classes", "n", 2.9),  # not a whole number
        ("pairs", "n", -4),
        ("pairs", "n", 0),  # a mean over no case
        (None, "n_cases", 0),
    ])
    def test_invalid_stats_file_is_typed_error(self, pipeline, tmp_path, capsys,
                                               section, key, value):
        doc = json.loads(pipeline["stats_path"].read_text())
        target = doc if section is None else doc[section][0]
        target[key] = value(target[key]) if callable(value) else value
        assert doc["classes"][0]["n"] > 0
        bad = tmp_path / "stats.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(InvalidStats):
            load_stats(bad)
        rc = main(["train", "--data", str(pipeline["train"]), "--stats", str(bad),
                   "--epochs", "1", "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: InvalidStats:")

    def test_eval_shape_mismatch(self, tmp_path, capsys):
        small = Volume3(np.ones((4, 4, 4), dtype=np.uint8), (1.0, 1.0, 1.0))
        big = Volume3(np.ones((5, 5, 5), dtype=np.uint8), (1.0, 1.0, 1.0))
        write_volume(small, tmp_path / "pred.mhd")
        write_volume(big, tmp_path / "gt.mhd")
        rc = main(["eval", "--pred", str(tmp_path / "pred.mhd"),
                   "--gt", str(tmp_path / "gt.mhd"), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ShapeMismatch:")

    @pytest.mark.parametrize("content", [
        "{not json", "{}", '{"macro": []}', '{"macro": {"dice": "high"}}',
        '{"macro": {"hd_mm": "0.5"}}',
    ])
    def test_invalid_report_json_is_typed_error(self, tmp_path, capsys, content):
        run = tmp_path / "run"
        run.mkdir()
        (run / "report_bad.json").write_text(content)
        rc = main(["report", "--runs", str(run), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: InvalidReport:")

    def test_run_without_reports_is_typed_error(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        for run, error in ((tmp_path / "empty", "InvalidReport"),
                           (tmp_path / "missing", "IoFailure")):
            rc = main(["report", "--runs", str(run), "--out", str(tmp_path / "out")])
            assert rc == 1
            assert capsys.readouterr().err.startswith(f"error: {error}:")

    @pytest.mark.parametrize("drop", [
        "classes", "pairs", "triples", "n_cases", "classes.volume_mean", "pairs.mean",
    ])
    def test_incomplete_stats_file_is_typed_error(self, pipeline, tmp_path, capsys, drop):
        doc = json.loads(pipeline["stats_path"].read_text())
        section, _, key = drop.rpartition(".")
        del (doc[section][0] if section else doc)[key]
        bad = tmp_path / "stats.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(InvalidStats, match=repr(key)):
            load_stats(bad)
        rc = main(["train", "--data", str(pipeline["train"]), "--stats", str(bad),
                   "--epochs", "1", "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidStats:") and repr(key) in err

    @pytest.mark.parametrize("drop", [
        "reference_grid", "transforms", "case_count", "reference_grid.spacing_mm",
    ])
    def test_incomplete_atlas_json_is_typed_error(self, pipeline, tmp_path, capsys, drop):
        atlas = tmp_path / "atlas"
        shutil.copytree(pipeline["atlas"], atlas)
        doc = json.loads((atlas / "atlas.json").read_text())
        section, _, key = drop.rpartition(".")
        del (doc[section] if section else doc)[key]
        (atlas / "atlas.json").write_text(json.dumps(doc))
        with pytest.raises(InvalidAtlas, match=repr(key)):
            load_atlas(atlas)
        rc = main(["train", "--data", str(pipeline["train"]), "--atlas", str(atlas),
                   "--epochs", "1", "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidAtlas:") and repr(key) in err

    @pytest.mark.parametrize("argv", [
        ["train", "--epochs", "-1"],
        ["train", "--step", "nan"],
        ["train", "--jobs", "0"],
        ["train", "--aux-weight", "1"],  # an auxiliary head without --atlas
        ["phantom", "--size", "4"],
        ["prep", "--size", "4"],
        ["phantom", "--jitter-scale", "1"],
        ["phantom", "--n", "-1"],
        ["gradcheck", "--size", "0"],
        ["atlas", "--iters", "-3"],
        ["phantom", "--jitter-trans", "inf"],
        ["phantom", "--jitter-scale", "1,inf"],
        ["phantom", "--spacing", "inf", "--jitter-trans", "inf"],
    ], ids=" ".join)
    def test_bad_parameter_is_typed_error(self, pipeline, tmp_path, capsys, argv):
        given = {
            "train": ["--data", str(pipeline["train"]), "--epochs", "1"],
            "phantom": ["--n", "1", "--size", "16", "--spacing", "6"],
            "prep": ["--in", str(pipeline["labels"])],
            "gradcheck": ["--loss", "volume"],
            "atlas": ["--labels", str(pipeline["labels"]), "--size", "24", "--spacing", "4"],
        }[argv[0]]
        rc = main(argv[:1] + given + argv[1:] + ["--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: InvalidParameter:")
        assert not (tmp_path / "out").exists()

    def test_gradcheck_that_compares_nothing_is_typed_error(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["gradcheck", "--loss", "relation", "--size", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: InvalidParameter:")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["stats", "eval", "train"])
    def test_unwritable_output_is_typed_error(self, pipeline, tmp_path, capsys, monkeypatch,
                                              command):
        entered = []
        monkeypatch.setattr(cli, "train", lambda *args: entered.append(args))
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_bytes(b"")
        argv = {
            "stats": ["stats", "--labels", str(pipeline["labels"]), "--out", str(tmp_path / "dir")],
            "eval": ["eval", "--pred", str(pipeline["run"]), "--gt", str(pipeline["gt"]),
                     "--out", str(tmp_path / "file" / "sub")],
            "train": ["train", "--data", str(pipeline["train"]), "--epochs", "1",
                      "--out", str(tmp_path / "file")],
        }[command]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: IoFailure:")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir", "file"]
        assert not entered  # the output is checked before training starts

    def test_interrupted_write_keeps_the_old_output(self, pipeline, tmp_path, monkeypatch,
                                                    capsys):
        out = tmp_path / "stats.json"
        out.write_bytes(b"old")

        def replace(src, dst):
            raise OSError(5, "interrupted", dst)

        monkeypatch.setattr(os, "replace", replace)
        rc = main(["stats", "--labels", str(pipeline["labels"]), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: IoFailure:")
        assert out.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["stats.json"]

    @pytest.mark.parametrize("key, value", [
        ("schema", None),
        ("case_count", 0),
        ("reference_grid", {"grid_size": [16, 16, 16], "spacing_mm": 4.0}),
        # the fixture atlas is 24^3 at 4 mm: a fractional or string size must not truncate to it
        ("reference_grid", {"grid_size": [24.9, 24, "24"], "spacing_mm": 4.0}),
        ("reference_grid", {"grid_size": 24, "spacing_mm": 4.0}),
        ("reference_grid", {"grid_size": [24, 24, 24], "spacing_mm": "4"}),
        ("reference_grid", {"grid_size": [24, 24, 24], "spacing_mm": 0.0}),
    ])
    def test_inconsistent_atlas_json_is_typed_error(self, pipeline, tmp_path, capsys,
                                                    key, value):
        atlas = tmp_path / "atlas"
        shutil.copytree(pipeline["atlas"], atlas)
        doc = json.loads((atlas / "atlas.json").read_text())
        doc[key] = value
        (atlas / "atlas.json").write_text(json.dumps(doc))
        with pytest.raises(InvalidAtlas):
            load_atlas(atlas)
        rc = main(["train", "--data", str(pipeline["train"]), "--atlas", str(atlas),
                   "--epochs", "1", "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: InvalidAtlas:")

    def test_eval_of_a_non_label_volume_is_typed_error(self, tmp_path, capsys):
        lab = np.zeros((4, 4, 4), dtype=np.uint8)
        lab[1:3, 1:3, 1:3] = 1
        write_volume(Volume3(lab.astype(np.float32), (1.0, 1.0, 1.0)), tmp_path / "pred.mhd")
        write_volume(Volume3(lab, (1.0, 1.0, 1.0)), tmp_path / "gt.mhd")
        rc = main(["eval", "--pred", str(tmp_path / "pred.mhd"),
                   "--gt", str(tmp_path / "gt.mhd"), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: InvalidLabelValue:")

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


def _raise_plain_exception(args):
    raise RuntimeError("boom")


class TestInternalErrors:
    """A plain exception escaping a command is exit 2; --debug adds its traceback."""

    def test_plain_exception_is_internal_error(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "cmd_report", _raise_plain_exception)
        rc = main(["report", "--runs", "r", "--out", "o"])
        assert rc == 2
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"

    def test_debug_prints_the_traceback(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "cmd_report", _raise_plain_exception)
        rc = main(["--debug", "report", "--runs", "r", "--out", "o"])
        assert rc == 2
        err = capsys.readouterr().err
        head, _, tb = err.partition("\n")
        assert head == "internal error: RuntimeError: boom"
        assert tb.startswith("Traceback (most recent call last):\n")
        assert "_raise_plain_exception" in tb
        assert tb.endswith("RuntimeError: boom\n")

    def test_debug_is_not_a_manifest_parameter(self, tmp_path):
        out = tmp_path / "ph"
        assert main(["--debug", "phantom", "--n", "1", "--size", "16", "--spacing", "6.0",
                     "--out", str(out)]) == 0
        assert "debug" not in json.loads((out / "manifest.json").read_text())["parameters"]


#: Numeric option values, each either accepted or a typed error.
_NUMBERS = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "0.05", "0.5", "3", "10", "1e300"])
#: Values for options that set a resampling spacing: a small one would build a huge grid.
_COARSE = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "10", "1e300"])
_SIZES = st.sampled_from(["-1", "0", "4", "8", "12"])
_COUNTS = st.integers(-2, 3).map(str)
_JOBS = st.integers(1, 4).map(str)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Two 12-cube phantom cases, their labels and an atlas of them."""
    root = tmp_path_factory.mktemp("tiny")
    grid = ["--size", "12", "--spacing", "10"]
    assert main(["phantom", "--n", "2", *grid, "--out", str(root / "cases")]) == 0
    for f in sorted((root / "cases").glob("case_*_label.mhd")):
        copy_pair(f, root / "labels")
    assert main(["atlas", "--labels", str(root / "labels"), *grid,
                 "--out", str(root / "atlas")]) == 0
    return root


class TestParameterProperty:
    """Any numeric parameter value ends in exit 0 or a typed error (1), never exit 2."""

    @staticmethod
    def argv(draw, tiny) -> list[str]:
        command = draw(st.sampled_from(["phantom", "gradcheck", "train", "atlas", "prep"]))
        if command == "phantom":
            return ["phantom", "--n", draw(_COUNTS), "--size", draw(_SIZES),
                    "--spacing", draw(_NUMBERS), "--seed", draw(_COUNTS),
                    "--jitter-rot", draw(_NUMBERS), "--jitter-trans", draw(_NUMBERS),
                    "--jitter-axis", draw(_NUMBERS),
                    "--jitter-scale", f"{draw(_NUMBERS)},{draw(_NUMBERS)}",
                    "--noise-sigma", draw(_NUMBERS), "--jobs", draw(_JOBS)]
        if command == "gradcheck":
            return ["gradcheck", "--loss", draw(st.sampled_from(GRADCHECK_LOSSES)),
                    "--size", draw(_COUNTS), "--seed", draw(_COUNTS)]
        if command == "train":
            atlas = ["--atlas", str(tiny / "atlas")] if draw(st.booleans()) else []
            return ["train", "--data", str(tiny / "cases"), *atlas, "--epochs", draw(_COUNTS),
                    "--step", draw(_NUMBERS), "--aux-weight", draw(_NUMBERS),
                    "--jobs", draw(_JOBS)]
        if command == "atlas":
            return ["atlas", "--labels", str(tiny / "labels"), "--iters", draw(_COUNTS),
                    "--size", draw(_SIZES), "--spacing", draw(_NUMBERS), "--jobs", draw(_JOBS)]
        return ["prep", "--in", str(tiny / "labels"), "--size", draw(_SIZES),
                "--spacing", draw(_COARSE), "--mode", "nearest", "--jobs", draw(_JOBS)]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_exit_code_is_0_or_1(self, tiny, data):
        argv = self.argv(data.draw, tiny)
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out, \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow in absurd geometry
            rc = main(argv + ["--out", os.path.join(out, "o")])
        assert rc in (0, 1), (argv, err.getvalue())
        if rc == 1:
            assert err.getvalue().startswith("error: "), err.getvalue()


class TestManifestInputs:
    def test_hashes_the_payload_the_header_names(self, tmp_path):
        labels = tmp_path / "labels"
        lab = np.zeros((8, 8, 8), dtype=np.uint8)
        lab[1:4, 1:4, 1:4], lab[4:7, 4:7, 4:7] = 1, 2
        mhd, raw = write_volume(Volume3(lab, (2.0, 2.0, 2.0)), labels / "case_000_label.mhd")
        payload = labels / "payload.raw"
        os.rename(raw, payload)
        pathlib.Path(mhd).write_text(pathlib.Path(mhd).read_text().replace(
            "= case_000_label.raw", "= payload.raw"))
        pathlib.Path(raw).write_bytes(b"a stale payload that is never read")
        out = tmp_path / "stats" / "s.json"
        assert main(["stats", "--labels", str(labels), "--out", str(out)]) == 0
        inputs = json.loads((tmp_path / "stats" / "manifest.json").read_text())["inputs"]
        assert inputs == {
            mhd: hashlib.sha256(pathlib.Path(mhd).read_bytes()).hexdigest(),
            str(payload): hashlib.sha256(payload.read_bytes()).hexdigest(),
        }

    def test_rebuilt_atlas_keeps_train_inputs(self, tiny, tmp_path):
        # train hashes the files load_atlas reads, not the atlas run's timestamped manifest
        atlas, run = tmp_path / "atlas", tmp_path / "run"
        inputs = []
        for _ in range(2):
            assert main(["atlas", "--labels", str(tiny / "labels"), "--size", "12",
                         "--spacing", "10", "--out", str(atlas)]) == 0
            assert main(["train", "--data", str(tiny / "cases"), "--atlas", str(atlas),
                         "--epochs", "1", "--out", str(run)]) == 0
            inputs.append(json.loads((run / "manifest.json").read_text())["inputs"])
        assert inputs[0] == inputs[1]
        assert str(atlas / "atlas.json") in inputs[0]
        assert str(atlas / "manifest.json") not in inputs[0]


class TestDeterminism:
    def test_rerun_differs_only_in_manifest_timestamp(self, tmp_path):
        out = tmp_path / "ph"
        argv = ["phantom", "--n", "1", "--size", "16", "--spacing", "6.0", "--out", str(out)]
        assert main(argv) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(argv) == 0
        for p in sorted(out.iterdir()):
            if p.name == "manifest.json":
                a = json.loads(first[p.name])
                b = json.loads(p.read_bytes())
                a.pop("timestamp"), b.pop("timestamp")
                assert a == b
            else:
                assert p.read_bytes() == first[p.name], p.name

    def test_jobs_flag_never_changes_outputs(self, tmp_path):
        outs = []
        for jobs, name in ((1, "a"), (3, "b")):
            out = tmp_path / name
            assert main(["phantom", "--n", "4", "--size", "16", "--spacing", "6.0",
                         "--jobs", str(jobs), "--out", str(out)]) == 0
            outs.append(out)
        for f in sorted(outs[0].iterdir()):
            if f.name == "manifest.json":
                continue  # parameter echo includes --jobs by design
            assert f.read_bytes() == (outs[1] / f.name).read_bytes(), f.name


class TestEvalPairing:
    """eval matches predictions to ground truth by case id, never by sorted position."""

    def write_cases(self, gt_dir, pred_dir, pred_names):
        gt_dir.mkdir()
        pred_dir.mkdir()
        for k, (case_id, pred_name) in enumerate(zip(("c", "c_m"), pred_names)):
            data = np.zeros((6, 6, 6), dtype=np.uint8)
            data[k:k + 3, 1:4, 1:4] = 1  # the two cases differ
            v = Volume3(data, (2.0, 2.0, 2.0))
            write_volume(v, gt_dir / f"{case_id}_label.mhd")
            write_volume(v, pred_dir / f"{pred_name}.mhd")

    def test_pairs_by_case_id(self, tmp_path):
        # sorted, "c_label" < "c_m_label" but "c_m_pred" < "c_pred"
        self.write_cases(tmp_path / "gt", tmp_path / "pred", ("c_pred", "c_m_pred"))
        assert main(["eval", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
                     "--out", str(tmp_path / "out")]) == 0
        for case_id in ("c", "c_m"):
            doc = json.loads((tmp_path / "out" / f"report_{case_id}_label.json").read_text())
            assert doc["macro"]["dice"] == 1.0

    def test_unmatched_case_ids_rejected(self, tmp_path, capsys):
        self.write_cases(tmp_path / "gt", tmp_path / "pred", ("b_c", "a_c_m"))
        rc = main(["eval", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: UsageError:")
        assert all(case_id in err for case_id in ("'a_c_m'", "'b_c'", "'c'", "'c_m'"))
        assert not (tmp_path / "out").exists()


class TestPrep:
    def test_label_volume_recentered_into_fov(self, tmp_path):
        data = np.zeros((10, 10, 10), dtype=np.uint8)
        data[6:9, 6:9, 6:9] = 2
        write_volume(Volume3(data, (3.0, 3.0, 3.0)), tmp_path / "lab.mhd")
        out = tmp_path / "prep"
        rc = main(["prep", "--in", str(tmp_path / "lab.mhd"), "--out", str(out),
                   "--spacing", "3.0", "--size", "12", "--mode", "nearest"])
        assert rc == 0
        v = read_volume(out / "lab.mhd")
        assert v.dims == (12, 12, 12)
        assert set(np.unique(v.data)) == {0, 2}
        assert (v.data == 2).sum() == 27  # blob survives the shift intact
        doc = json.loads((out / "manifest.json").read_text())
        assert any(k.endswith("lab.raw") for k in doc["inputs"])

    def test_tiny_spacing_is_invalid_parameter(self, tmp_path, capsys):
        # 12 voxels at 10 mm resampled to 1e-3 mm would be 120000^3 voxels
        data = np.zeros((12, 12, 12), dtype=np.uint8)
        data[4:8, 4:8, 4:8] = 1
        write_volume(Volume3(data, (10.0, 10.0, 10.0)), tmp_path / "lab.mhd")
        out = tmp_path / "prep"
        rc = main(["prep", "--in", str(tmp_path / "lab.mhd"), "--out", str(out),
                   "--size", "8", "--spacing", "1e-3"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidParameter:")
        assert "(0.001, 0.001, 0.001)" in err and "(12, 12, 12)" in err
        assert not out.exists() or not any(out.iterdir())


class TestGradcheckCommand:
    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "gc.json"
        proc = subprocess.run(
            [sys.executable, "-m", "cardioprior.cli", "gradcheck", "--loss", "volume",
             "--size", "8", "--seed", "0", "--out", str(out)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["loss"] == "volume"
        assert report["max_rel_err"] < 1e-6
        assert out.read_text() == proc.stdout

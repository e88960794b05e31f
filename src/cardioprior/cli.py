"""Batch command-line surface.

Subcommands: prep, stats, atlas, phantom, gradcheck, train, eval, report.
Every command writes exactly one manifest (parameter echo, input hashes of
each volume header and the payload it names, tool version, timestamp,
output paths) next to its primary outputs, and exits 0 on success, 1 on
input/validation errors, 2 on internal errors; ``--debug`` (before the
subcommand) adds the traceback of an internal error. A bad parameter value
(InvalidParameter) and an output that cannot be written (IoFailure) are
input errors. Output directories are created as needed, and each output
file is replaced atomically, so an interrupted run leaves no partial file.
All primary outputs are byte-deterministic for fixed inputs; only the
manifest timestamp varies between identical runs. ``--jobs`` parallelizes
across cases with an order-preserving map, so results never depend on it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone

import numpy as np

from ._version import __version__
from .align import atlas_files, build_atlas, load_atlas, save_atlas
from .errors import CardioPriorError, InvalidParameter, UsageError
from .losses import GRADCHECK_LOSSES, LossConfig, gradcheck, load_loss_config
from .metrics import evaluate_case
from .phantom import Jitter, PhantomSpec, generate
from .preprocess import FovSpec, embed_fov, foreground_centroid, resample
from .report import build_summary, report_files, write_summary_csv, write_summary_md
from .stats import aggregate, case_descriptor, load_stats, save_stats
from .trainer import (
    DEFAULT_EPOCHS,
    DEFAULT_STEP_SIZE,
    TrainConfig,
    experiment_weights,
    feature_names,
    init_model,
    predict,
    save_model,
    save_trace_csv,
    train,
)
from .volume import (
    Volume3, argmax_labels, check_output_dir, one_hot, payload_path, read_volume,
    write_json, write_volume,
)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-1 error path."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _parse_values(text: str, cast) -> tuple:
    """Comma-separated values, each converted by ``cast``."""
    try:
        return tuple(cast(p) for p in text.split(","))
    except ValueError as exc:
        raise InvalidParameter(f"cannot parse {text!r}: {exc}") from exc


def _parse_triple(text: str, cast) -> tuple:
    values = _parse_values(text, cast)
    if len(values) == 1:
        values = values * 3
    if len(values) != 3:
        raise UsageError(f"expected one value or a comma triple, got {text!r}")
    return values


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _volume_files(path: str) -> list[str]:
    """The .mhd files under a directory (sorted), or the single given file."""
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, f) for f in os.listdir(path) if f.endswith(".mhd")
        )
        if not files:
            raise UsageError(f"no .mhd volumes found in {path}")
        return files
    if not os.path.exists(path):
        raise UsageError(f"input {path} does not exist")
    return [path]


def _hash_volumes(files: list[str]) -> dict[str, str]:
    """Hashes of each volume header and of the payload file its header names."""
    hashes = {}
    for f in files:
        hashes[f] = _sha256(f)
        raw = payload_path(f)
        hashes[raw] = _sha256(raw)
    return hashes


def _write_manifest(
    out_dir: str, command: str, params: dict, inputs: dict[str, str], outputs: list[str]
) -> None:
    doc = {
        "command": command,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "parameters": params,
        "inputs": inputs,
        "outputs": sorted(outputs),
    }
    write_json(os.path.join(out_dir, "manifest.json"), doc)


def _params(args: argparse.Namespace) -> dict:
    skip = {"func", "debug"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _pmap(fn, items, jobs: int) -> list:
    if jobs < 1:
        raise InvalidParameter(f"--jobs must be >= 1, got {jobs}")
    if jobs == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(fn, items))


# ---------------------------------------------------------------------------
# subcommands


def cmd_prep(args: argparse.Namespace) -> int:
    files = _volume_files(args.in_path)
    spacing = _parse_triple(args.spacing, float)
    size = _parse_triple(args.size, int)
    fov = FovSpec(size, spacing[0])

    def process(path: str) -> tuple[str, str]:
        v = read_volume(path)
        r = resample(v, spacing, args.mode)
        if r.data.dtype == np.uint8 and (r.data != 0).any():
            center = foreground_centroid(r)
        else:
            center = tuple(
                r.offset[a] + r.spacing[a] * (r.dims[a] - 1) / 2.0 for a in range(3)
            )
        out_v = embed_fov(r, center, fov, args.mode)
        return write_volume(out_v, os.path.join(args.out, os.path.basename(path)))

    outputs = [p for paths in _pmap(process, files, args.jobs) for p in paths]
    _write_manifest(args.out, "prep", _params(args), _hash_volumes(files), outputs)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    files = _volume_files(args.labels)
    descriptors = _pmap(
        lambda f: case_descriptor(one_hot(read_volume(f))), files, args.jobs
    )
    stats = aggregate(descriptors)
    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    save_stats(stats, args.out)
    _write_manifest(out_dir, "stats", _params(args), _hash_volumes(files), [args.out])
    return 0


def cmd_atlas(args: argparse.Namespace) -> int:
    files = _volume_files(args.labels)
    volumes = _pmap(read_volume, files, args.jobs)
    fov = FovSpec(_parse_triple(args.size, int), float(args.spacing))
    case_ids = [os.path.splitext(os.path.basename(f))[0] for f in files]
    atlas = build_atlas(volumes, fov, gpa_iters=args.iters,
                        with_scale=args.with_scale, case_ids=case_ids)
    outputs = save_atlas(atlas, args.out)
    _write_manifest(args.out, "atlas", _params(args), _hash_volumes(files), outputs)
    return 0


def cmd_phantom(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise InvalidParameter(f"--n must be >= 1, got {args.n}")
    jitter = Jitter(
        pose_rotation_max_deg=args.jitter_rot,
        translation_max_mm=args.jitter_trans,
        scale_range=_parse_values(args.jitter_scale, float),
        axis_variation=args.jitter_axis,
    )
    spec = PhantomSpec(
        grid=FovSpec(_parse_triple(args.size, int), float(args.spacing)),
        seed=args.seed,
        jitter=jitter,
        noise_sigma=args.noise_sigma,
    )

    def make(k: int) -> tuple[str, ...]:
        image, labels = generate(spec, k)
        return (write_volume(image, os.path.join(args.out, f"case_{k:03d}_image.mhd"))
                + write_volume(labels, os.path.join(args.out, f"case_{k:03d}_label.mhd")))

    outputs = [p for paths in _pmap(make, range(args.n), args.jobs) for p in paths]
    dataset = {
        "n_cases": args.n,
        "seed": args.seed,
        "grid_size": list(spec.grid.grid_size),
        "spacing_mm": spec.grid.spacing_mm,
        "noise_sigma": spec.noise_sigma,
        "jitter": {
            "pose_rotation_max_deg": jitter.pose_rotation_max_deg,
            "translation_max_mm": jitter.translation_max_mm,
            "scale_range": list(jitter.scale_range),
            "axis_variation": jitter.axis_variation,
        },
        "cases": [
            {
                "index": k,
                "image": f"case_{k:03d}_image.mhd",
                "labels": f"case_{k:03d}_label.mhd",
            }
            for k in range(args.n)
        ],
    }
    ds_path = os.path.join(args.out, "dataset.json")
    write_json(ds_path, dataset)
    _write_manifest(args.out, "phantom", _params(args), {}, outputs + [ds_path])
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    report = gradcheck(args.loss, size=args.size, seed=args.seed)
    sys.stdout.write(write_json(args.out, report))
    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    _write_manifest(out_dir, "gradcheck", _params(args), {}, [args.out])
    return 0


def _load_case_pairs(data_dir: str) -> tuple[list[str], list[tuple[Volume3, Volume3]]]:
    files = sorted(f for f in os.listdir(data_dir) if f.endswith("_image.mhd"))
    if not files:
        raise UsageError(f"no case_*_image.mhd volumes in {data_dir}")
    inputs, cases = [], []
    for f in files:
        img_path = os.path.join(data_dir, f)
        lab_path = os.path.join(data_dir, f.replace("_image.mhd", "_label.mhd"))
        if not os.path.exists(lab_path):
            raise UsageError(f"missing label volume for {img_path}")
        inputs.extend([img_path, lab_path])
        cases.append((read_volume(img_path), read_volume(lab_path)))
    return inputs, cases


def cmd_train(args: argparse.Namespace) -> int:
    inputs, cases = _load_case_pairs(args.data)
    stats = load_stats(args.stats) if args.stats else None
    atlas = load_atlas(args.atlas) if args.atlas else None
    if args.atlas:
        inputs.extend(atlas_files(args.atlas))
    if args.loss_config:
        loss_cfg = load_loss_config(args.loss_config, stats=stats)
        inputs.append(args.loss_config)
    else:
        # without an explicit config, train the baseline terms only
        loss_cfg = LossConfig(weights=experiment_weights("baseline"), stats=stats)
    if args.stats:
        inputs.append(args.stats)
    cfg = TrainConfig(
        step_size=args.step,
        epochs=args.epochs,
        loss=loss_cfg,
        aux_weight=args.aux_weight,
        atlas=atlas,
        jobs=args.jobs,
    )
    model = init_model(feature_names(atlas is not None), aux=args.aux_weight > 0.0)
    check_output_dir(args.out)  # fail before the first epoch, not after the last
    trained, trace = train(model, cases, cfg)

    model_path = os.path.join(args.out, "model.json")
    trace_path = os.path.join(args.out, "trace.csv")
    save_model(trained, model_path, training={
        "epochs": args.epochs, "step_size": args.step,
        "aux_weight": args.aux_weight, "weights": loss_cfg.weights,
    })
    save_trace_csv(trace, trace_path)
    outputs = [model_path, trace_path]

    if args.test_data:
        test_files = sorted(
            f for f in os.listdir(args.test_data) if f.endswith("_image.mhd")
        )
        if not test_files:
            raise UsageError(f"no case_*_image.mhd volumes in {args.test_data}")

        def run_case(f: str) -> tuple[str, str]:
            img = read_volume(os.path.join(args.test_data, f))
            pred = argmax_labels(predict(trained, img, atlas))
            return write_volume(pred, os.path.join(args.out, f.replace("_image.mhd", "_pred.mhd")))

        outputs.extend(p for paths in _pmap(run_case, test_files, args.jobs) for p in paths)
        inputs.extend(os.path.join(args.test_data, f) for f in test_files)

    manifest_inputs = _hash_volumes([p for p in inputs if p.endswith(".mhd")])
    manifest_inputs.update({p: _sha256(p) for p in inputs if not p.endswith(".mhd")})
    _write_manifest(args.out, "train", _params(args), manifest_inputs, outputs)
    return 0


def _case_id(path: str) -> str:
    """File stem without its _pred, _label or _image role suffix."""
    stem = os.path.splitext(os.path.basename(path))[0]
    for suffix in ("_pred", "_label", "_image"):
        if stem.endswith(suffix):
            return stem[: -len(suffix)]
    return stem


def _eval_pairs(pred_path: str, gt_path: str) -> list[tuple[str, str]]:
    """(prediction, ground truth) files matched by case id; two files pair directly."""
    pred_files = _volume_files(pred_path)
    gt_files = _volume_files(gt_path)
    if not os.path.isdir(pred_path) and not os.path.isdir(gt_path):
        return [(pred_files[0], gt_files[0])]
    preds = {_case_id(f): f for f in pred_files}
    gts = {_case_id(f): f for f in gt_files}
    if len(preds) < len(pred_files) or len(gts) < len(gt_files):
        raise UsageError("two volumes in one input share a case id")
    if preds.keys() != gts.keys():
        raise UsageError(
            f"case ids without a partner in predictions and ground truth: "
            f"{sorted(preds.keys() ^ gts.keys())}"
        )
    return [(preds[_case_id(g)], g) for g in gt_files]


def cmd_eval(args: argparse.Namespace) -> int:
    pairs = _eval_pairs(args.pred, args.gt)

    def run(pair: tuple[str, str]) -> str:
        pred_path, gt_path = pair
        case_id = os.path.splitext(os.path.basename(gt_path))[0]
        report = evaluate_case(
            read_volume(pred_path), read_volume(gt_path),
            case_id=case_id, include_hd95=args.hd95,
        )
        out_path = os.path.join(args.out, f"report_{case_id}.json")
        write_json(out_path, report.to_dict())
        return out_path

    outputs = _pmap(run, pairs, args.jobs)
    _write_manifest(
        args.out, "eval", _params(args), _hash_volumes([f for pair in pairs for f in pair]),
        outputs,
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    rows = build_summary(args.runs)
    csv_path = os.path.join(args.out, "summary.csv")
    md_path = os.path.join(args.out, "summary.md")
    write_summary_csv(rows, csv_path)
    write_summary_md(rows, md_path)
    inputs = {path: _sha256(path) for run in args.runs for path in report_files(run)}
    _write_manifest(args.out, "report", _params(args), inputs, [csv_path, md_path])
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="cardioprior", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--debug", action="store_true",
                        help="print the traceback of an internal error (exit 2)")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("prep", help="resample/embed volumes into a fixed FOV")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spacing", default="2.0", help="target spacing (mm)")
    p.add_argument("--size", default="48", help="FOV grid size (voxels)")
    p.add_argument("--mode", choices=("nearest", "trilinear"), default="trilinear")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("stats", help="aggregate shape statistics from label volumes")
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("atlas", help="build the aligned heatmap atlas")
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--iters", type=int, default=2)
    p.add_argument("--with-scale", action="store_true")
    p.add_argument("--size", default="48")
    p.add_argument("--spacing", type=float, default=2.0)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_atlas)

    p = sub.add_parser("phantom", help="generate synthetic heart cases")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", default="48")
    p.add_argument("--spacing", type=float, default=2.0)
    p.add_argument("--out", required=True)
    p.add_argument("--jitter-rot", type=float, default=10.0)
    p.add_argument("--jitter-trans", type=float, default=4.0)
    p.add_argument("--jitter-scale", default="0.95,1.05")
    p.add_argument("--jitter-axis", type=float, default=0.06)
    p.add_argument("--noise-sigma", type=float, default=12.0)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--loss", required=True, choices=GRADCHECK_LOSSES)
    p.add_argument("--size", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train", help="train the micro segmenter")
    p.add_argument("--data", required=True)
    p.add_argument("--stats")
    p.add_argument("--atlas")
    p.add_argument("--loss-config", dest="loss_config")
    p.add_argument("--epochs", type=int, default=DEFAULT_EPOCHS)
    p.add_argument("--step", type=float, default=DEFAULT_STEP_SIZE)
    p.add_argument("--out", required=True)
    p.add_argument("--aux-weight", type=float, default=0.0)
    p.add_argument("--test-data", dest="test_data",
                   help="directory of case_*_image.mhd volumes to predict after training")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate predictions against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--hd95", action="store_true", help="add the optional HD95 column")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="summary.csv / summary.md across runs")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CardioPriorError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the exit-2 contract
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if getattr(args, "debug", False):
            print(traceback.format_exc(), end="", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Bit-identity fingerprint of the package's outputs.

Prints one SHA-256 per artifact, then one over all of them (``ALL``), so the
outputs of two source trees can be compared artifact by artifact:

    PYTHONPATH=src python tests/fingerprint.py [--jobs N]

The artifacts:

* ``experiment/<config>/...``: the four ``experiment_weights`` configs
  trained with atlas features on a small phantom (4 training and 2 test
  cases at 24^3, 4 mm): trained weights, the trace CSV, and the test-case
  reports with HD95;
* ``gradcheck/<loss>``: the five gradcheck reports at 5^3, seed 0, and
  ``gradcheck/weight``: the ``weight_gradcheck`` report at seed 0;
* ``cli/<path>``: every file of a tiny CLI chain at 16^3, 6 mm (phantom,
  stats, atlas, train with a loss config, the atlas and the auxiliary head,
  eval with HD95, report). Manifests are hashed without their timestamp and
  ``--jobs`` echo, with paths relative to the run root.
* ``phantom/<grid>/case_<k>/{image,labels}``: the array bytes of
  ``generate`` for cases 0-4 of ``PhantomSpec(seed=0)`` at the default
  48^3, 2 mm grid, and of seed 0 under the widest jitter (45 degrees, 8 mm,
  scale 0.8-1.2, axis 0.49) at 64^3, 2.5 mm;
* ``gradcheck/<loss>/seed_<k>`` and ``gradcheck/weight/seed_<k>``: the same
  six reports at seeds 1 and 2, hashed whether or not they pass the 1e-6
  gate (some do not; see ROADMAP.md), so that the finite-difference paths
  are compared beyond seed 0;
* ``aux/train_24``: the weights of both heads and the trace CSV of an
  aux-head ``train`` (volume config, atlas features, aux weight 0.5) at
  24^3, 4 mm, two voxel tiles, so that the tiled auxiliary head is
  compared over more than one tile;
* ``predict/tail``: the probabilities of ``predict`` with a model of both
  heads on a 23 x 19 x 29 grid, one full voxel tile and a shorter one;
* ``gradcheck/<loss>/size_8``: the five gradcheck reports at 8^3, seed 0,
  the configuration of acceptance criterion 1, where a chunk of stacked
  finite differences holds fewer entries than at 5^3.

``--jobs`` sets the training and CLI parallelism; no hash may depend on it.
The file name keeps pytest from collecting this script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile

import cardioprior as cp
from cardioprior.cli import main as cli_main

CONFIGS = ("baseline", "volume", "moment", "relation")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_bytes(doc) -> bytes:
    return json.dumps(doc, indent=2, sort_keys=True).encode("utf-8")


def experiment(jobs: int, tmp: str) -> dict[str, str]:
    spec = cp.PhantomSpec(grid=cp.FovSpec((24, 24, 24), 4.0), seed=3)
    cases = [cp.generate(spec, k) for k in range(6)]
    train_cases, test_cases = cases[:4], cases[4:]
    labels = [lab for _, lab in train_cases]
    stats = cp.aggregate([cp.case_descriptor(cp.one_hot(lab)) for lab in labels])
    atlas = cp.build_atlas(labels, spec.grid)
    out = {}
    for config in CONFIGS:
        cfg = cp.TrainConfig(
            epochs=40, atlas=atlas, jobs=jobs,
            loss=cp.LossConfig(weights=cp.experiment_weights(config), stats=stats),
        )
        model, trace = cp.train(cp.init_model(cp.feature_names(True)), train_cases, cfg)
        out[f"experiment/{config}/weights"] = _sha(model.weights.tobytes())
        trace_path = os.path.join(tmp, f"trace_{config}.csv")
        cp.save_trace_csv(trace, trace_path)
        with open(trace_path, "rb") as fh:
            out[f"experiment/{config}/trace.csv"] = _sha(fh.read())
        reports = [
            cp.evaluate_case(cp.argmax_labels(cp.predict(model, img, atlas)), lab,
                             case_id=f"case_{k:03d}", include_hd95=True).to_dict()
            for k, (img, lab) in enumerate(test_cases)
        ]
        out[f"experiment/{config}/reports"] = _sha(_json_bytes(reports))
    return out


def gradchecks() -> dict[str, str]:
    out = {f"gradcheck/{loss}": _sha(_json_bytes(cp.gradcheck(loss, size=5, seed=0)))
           for loss in cp.GRADCHECK_LOSSES}
    out["gradcheck/weight"] = _sha(_json_bytes(cp.weight_gradcheck(seed=0)))
    return out


def gradcheck_seeds() -> dict[str, str]:
    out = {}
    for seed in (1, 2):
        for loss in cp.GRADCHECK_LOSSES:
            out[f"gradcheck/{loss}/seed_{seed}"] = _sha(_json_bytes(cp.gradcheck(loss, size=5,
                                                                                 seed=seed)))
        out[f"gradcheck/weight/seed_{seed}"] = _sha(_json_bytes(cp.weight_gradcheck(seed=seed)))
    return out


def gradcheck_size_8() -> dict[str, str]:
    return {f"gradcheck/{loss}/size_8": _sha(_json_bytes(cp.gradcheck(loss, size=8, seed=0)))
            for loss in cp.GRADCHECK_LOSSES}


PHANTOM_GRIDS = {
    "default": cp.PhantomSpec(seed=0),
    "max_jitter": cp.PhantomSpec(grid=cp.FovSpec((64, 64, 64), 2.5), seed=0,
                                 jitter=cp.Jitter(45.0, 8.0, (0.8, 1.2), 0.49)),
}


def phantoms() -> dict[str, str]:
    out = {}
    for name, spec in PHANTOM_GRIDS.items():
        for k in range(5):
            image, labels = cp.generate(spec, k)
            out[f"phantom/{name}/case_{k:03d}/image"] = _sha(image.data.tobytes())
            out[f"phantom/{name}/case_{k:03d}/labels"] = _sha(labels.data.tobytes())
    return out


def aux_and_tail(jobs: int) -> dict[str, str]:
    out = {}
    for key, grid in (("aux/train_24", cp.FovSpec((24, 24, 24), 4.0)),
                      ("predict/tail", cp.FovSpec((23, 19, 29), 5.0))):
        spec = cp.PhantomSpec(grid=grid, seed=1)
        cases = [cp.generate(spec, k) for k in range(3)]
        labels = [lab for _, lab in cases[:2]]
        stats = cp.aggregate([cp.case_descriptor(cp.one_hot(lab)) for lab in labels])
        atlas = cp.build_atlas(labels, grid)
        cfg = cp.TrainConfig(
            epochs=10, atlas=atlas, aux_weight=0.5, jobs=jobs,
            loss=cp.LossConfig(weights=cp.experiment_weights("volume"), stats=stats),
        )
        model, trace = cp.train(cp.init_model(cp.feature_names(True), aux=True), cases[:2], cfg)
        if key == "predict/tail":
            out[key] = _sha(cp.predict(model, cases[2][0], atlas).data.tobytes())
            continue
        with tempfile.TemporaryDirectory() as tmp:
            cp.save_trace_csv(trace, os.path.join(tmp, "trace.csv"))
            with open(os.path.join(tmp, "trace.csv"), "rb") as fh:
                trace_csv = fh.read()
        out[key] = _sha(model.weights.tobytes() + model.aux_weights.tobytes() + trace_csv)
    return out


def _relative(value, root: str):
    """``value`` with every path under ``root`` made relative to it."""
    if isinstance(value, str):
        return value[len(root) + 1:] if value.startswith(root + os.sep) else value
    if isinstance(value, list):
        return [_relative(v, root) for v in value]
    if isinstance(value, dict):
        return {_relative(k, root): _relative(v, root) for k, v in value.items()}
    return value


def cli_chain(jobs: int, root: str) -> dict[str, str]:
    d = {name: os.path.join(root, name) for name in
         ("train", "test", "labels", "gt", "stats", "atlas", "run", "eval", "report")}
    grid = ["--size", "16", "--spacing", "6"]
    j = ["--jobs", str(jobs)]
    loss_config = os.path.join(root, "loss.json")
    commands = [
        ["phantom", "--n", "3", "--seed", "5", *grid, "--out", d["train"], *j],
        ["phantom", "--n", "2", "--seed", "6", *grid, "--out", d["test"], *j],
        None,  # copy the label volumes
        ["stats", "--labels", d["labels"], "--out", os.path.join(d["stats"], "stats.json"), *j],
        ["atlas", "--labels", d["labels"], *grid, "--out", d["atlas"], *j],
        ["train", "--data", d["train"], "--stats", os.path.join(d["stats"], "stats.json"),
         "--atlas", d["atlas"], "--loss-config", loss_config, "--aux-weight", "0.5",
         "--epochs", "10", "--test-data", d["test"], "--out", d["run"], *j],
        ["eval", "--pred", d["run"], "--gt", d["gt"], "--hd95", "--out", d["eval"], *j],
        ["report", "--runs", d["eval"], "--out", d["report"]],
    ]
    with open(loss_config, "w", encoding="utf-8") as fh:
        json.dump({"schema": "loss-config/1", "weights": cp.experiment_weights("relation")}, fh)
    for argv in commands:
        if argv is None:
            for src, dst in (("train", "labels"), ("test", "gt")):
                os.makedirs(d[dst])
                for f in sorted(os.listdir(d[src])):
                    if "_label." in f:
                        shutil.copy(os.path.join(d[src], f), d[dst])
        elif cli_main(argv) != 0:
            sys.exit(f"fingerprint: command failed: {argv}")
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for f in sorted(filenames):
            path = os.path.join(dirpath, f)
            with open(path, "rb") as fh:
                data = fh.read()
            if f == "manifest.json":
                doc = json.loads(data)
                del doc["timestamp"]
                doc["parameters"].pop("jobs", None)
                data = _json_bytes(_relative(doc, root))
            out["cli/" + os.path.relpath(path, root)] = _sha(data)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        hashes = experiment(args.jobs, tmp)
        hashes.update(gradchecks())
        os.makedirs(os.path.join(tmp, "cli"))
        hashes.update(cli_chain(args.jobs, os.path.join(tmp, "cli")))
    hashes.update(phantoms())
    hashes.update(gradcheck_seeds())
    hashes.update(aux_and_tail(args.jobs))
    hashes.update(gradcheck_size_8())
    lines = [f"{digest}  {name}" for name, digest in hashes.items()]
    lines.append(f"{_sha(chr(10).join(lines).encode('utf-8'))}  ALL")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

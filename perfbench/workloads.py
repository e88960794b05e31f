"""The three benchmark workloads.

Each workload has a ``setup`` (repeated by the runner; the last one's
inputs are used), a ``run_round`` that does the program work the runner
times and returns the outputs with a per-stage breakdown of its time, and
a ``check_round`` that compares those outputs with the independent
oracles. Every round repeats the same operations on the same inputs. The
program is driven only through its public functions and
``cardioprior.cli.main``.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

import cardioprior as cp
from cardioprior import cli

import bench_oracles as oracles

CONFIGS = ("baseline", "volume", "moment", "relation")

#: Configs whose objective must fall at every epoch. The relation term is
#: skipped at the zero init (all soft centroids coincide) and switches on
#: at epoch 1; on most inputs its objective then rises for a few epochs.
DECREASING_CONFIGS = ("baseline", "volume", "moment")

#: Configs whose macro Dice must beat the uniform model's after EPOCHS
#: epochs. On some seeds the volume and relation models still score 0
#: there (see README.md); they keep the epoch-0 and scoring checks.
DICE_CONFIGS = ("baseline", "moment")


class Outcome:
    """Attempted/failed operation counts and the messages of failed checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.check_failures = 0
        self.messages: list[str] = []

    def add(self, name: str, errors: list[str], ran: bool = True) -> None:
        """One operation; it fails when it did not run or its output failed a check."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.check_failures += ran
            self.messages.extend(f"{name}: {e}" for e in errors)


# ---------------------------------------------------------------------------


class Experiment:
    """The paper's comparison in memory: priors, four configs, held-out scoring.

    Single-threaded (``jobs=1``) and without file I/O, so ``trainer`` and
    ``losses`` carry nearly all the work.
    """

    N_TRAIN, N_TEST, EPOCHS = 3, 2, 5

    def __init__(self, seed: int, workdir: str) -> None:
        self.spec = cp.PhantomSpec(seed=seed)

    def setup(self) -> None:
        cases = [cp.generate(self.spec, k) for k in range(self.N_TRAIN + self.N_TEST)]
        self.train_cases, self.test_cases = cases[:self.N_TRAIN], cases[self.N_TRAIN:]

    def run_round(self) -> dict:
        t = time.perf_counter
        labels = [lab for _, lab in self.train_cases]
        t0 = t()
        stats = cp.aggregate([cp.case_descriptor(cp.one_hot(lab)) for lab in labels])
        atlas = cp.build_atlas(labels, self.spec.grid)
        timings = {"prior_build_s": t() - t0}
        out = {"stats": stats, "atlas": atlas, "models": {}, "traces": {}, "reports": {}}
        for config in CONFIGS:
            cfg = cp.TrainConfig(
                atlas=atlas, epochs=self.EPOCHS, jobs=1,
                loss=cp.LossConfig(weights=cp.experiment_weights(config), stats=stats),
            )
            t0 = t()
            out["models"][config], out["traces"][config] = cp.train(
                cp.init_model(cp.feature_names(True)), self.train_cases, cfg)
            timings[f"train_{config}_s"] = t() - t0
        t0 = t()
        for config, model in out["models"].items():
            for k, (img, lab) in enumerate(self.test_cases):
                pred = cp.argmax_labels(cp.predict(model, img, atlas))
                report = cp.evaluate_case(pred, lab, case_id=f"case_{k:03d}")
                out["reports"][(config, k)] = (pred.data, report.to_dict())
        timings["eval_s"] = t() - t0
        out["timings"] = timings
        return out

    def check_round(self, out: dict, outcome: Outcome) -> None:
        grid = self.spec.grid
        spacing, offset = grid.spacing, grid.origin_centered_offset()
        labels = [lab.data for _, lab in self.train_cases]
        stats = out["stats"]

        errors = oracles.heatmap_errors(out["atlas"].heatmaps)
        want = oracles.volume_means(labels, spacing)
        for c in oracles.FOREGROUND:
            if not np.isclose(stats.volume_mean[c], want[c], rtol=1e-9, atol=0.0):
                errors.append(f"volume_mean[{c}] {stats.volume_mean[c]} != {want[c]}")
        outcome.add("prior build", errors)

        scored = {key: oracles.case_metrics(pred, self.test_cases[key[1]][1].data, spacing, False)
                  for key, (pred, _) in out["reports"].items()}
        for config in CONFIGS:
            weights = cp.experiment_weights(config)
            totals = [row["total"] for row in out["traces"][config]]
            want0 = oracles.epoch0_objective(
                weights, labels, spacing, offset, stats.volume_mean, stats.volume_std,
                stats.class_n, stats.centroid_mean, stats.second_moment_mean)
            errors = []
            if not np.isclose(totals[0], want0, rtol=1e-9, atol=0.0):
                errors.append(f"epoch-0 objective {totals[0]!r} != closed form {want0!r}")
            dice = np.mean([scored[(config, k)]["macro"]["dice"] for k in range(self.N_TEST)])
            if config in DECREASING_CONFIGS and not oracles.strictly_decreasing(totals):
                errors.append(f"objective trace not decreasing: {totals}")
            # the zero-weight model predicts background everywhere: macro Dice 0
            if config in DICE_CONFIGS and not dice > 0.0:
                errors.append(f"macro Dice {dice} not above the uniform model's 0")
            outcome.add(f"train {config}", errors)

        for (config, k), (_, report) in out["reports"].items():
            errors = oracles.report_errors(report, scored[(config, k)])
            outcome.add(f"score {config} case {k}", errors)


# ---------------------------------------------------------------------------


class Pipeline:
    """The documented CLI chain on files, with ``--jobs`` equal to the core count."""

    N_TRAIN, N_TEST, EPOCHS, AUX_WEIGHT = 3, 4, 2, 0.5
    LOSS_CONFIG = "volume"
    #: Fraction of boundary voxels relabelled in the near-ground-truth predictions.
    SWAP_FRACTION = 0.15

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.train_seed, self.test_seed = seed, seed + 1_000_003
        self.jobs = str(len(os.sched_getaffinity(0)))
        self.root = workdir
        self.near_gt = os.path.join(workdir, "near_gt")
        self.loss_config = os.path.join(workdir, "loss_config.json")

    def setup(self) -> None:
        shutil.rmtree(self.near_gt, ignore_errors=True)
        os.makedirs(self.near_gt)
        spec = cp.PhantomSpec(seed=self.test_seed)
        self.test_labels = []
        for k in range(self.N_TEST):
            _, lab = cp.generate(spec, k)
            self.test_labels.append(lab.data)
            near = cp.degrade(lab, "swap_boundary", self.SWAP_FRACTION, seed=self.seed + k)
            # named to sort with the ground truth: eval pairs files by position
            cp.write_volume(near, os.path.join(self.near_gt, f"case_{k:03d}_pred.mhd"))
        with open(self.loss_config, "w", encoding="utf-8") as fh:
            json.dump({"schema": "loss-config/1",
                       "weights": cp.experiment_weights(self.LOSS_CONFIG)}, fh)

    def _dirs(self) -> dict:
        r = os.path.join(self.root, "round")
        names = ("train", "test", "labels", "gt", "atlas", "run", "eval_model",
                 "eval_near_gt", "report")
        d = {n: os.path.join(r, n) for n in names}
        d["round"], d["stats"] = r, os.path.join(r, "stats", "stats.json")
        return d

    def run_round(self) -> dict:
        d = self._dirs()
        shutil.rmtree(d["round"], ignore_errors=True)
        j = self.jobs
        commands = [
            ("phantom_train", ["phantom", "--n", str(self.N_TRAIN), "--seed", str(self.train_seed),
                               "--out", d["train"], "--jobs", j]),
            ("phantom_test", ["phantom", "--n", str(self.N_TEST), "--seed", str(self.test_seed),
                              "--out", d["test"], "--jobs", j]),
            ("copy", None),
            ("stats", ["stats", "--labels", d["labels"], "--out", d["stats"], "--jobs", j]),
            ("atlas", ["atlas", "--labels", d["labels"], "--out", d["atlas"], "--jobs", j]),
            ("train", ["train", "--data", d["train"], "--stats", d["stats"], "--atlas", d["atlas"],
                       "--loss-config", self.loss_config, "--epochs", str(self.EPOCHS),
                       "--aux-weight", str(self.AUX_WEIGHT), "--out", d["run"],
                       "--test-data", d["test"], "--jobs", j]),
            ("eval_model", ["eval", "--pred", d["run"], "--gt", d["gt"],
                            "--out", d["eval_model"], "--jobs", j]),
            ("eval_near_gt", ["eval", "--pred", self.near_gt, "--gt", d["gt"],
                              "--out", d["eval_near_gt"], "--hd95", "--jobs", j]),
            ("report", ["report", "--runs", d["eval_model"], d["eval_near_gt"],
                        "--out", d["report"]]),
        ]
        t = time.perf_counter
        codes, timings = {}, {}
        for name, argv in commands:
            t0 = t()
            if argv is None:
                for src, dst in (("train", "labels"), ("test", "gt")):
                    os.makedirs(d[dst])
                    for f in sorted(os.listdir(d[src])):
                        if "_label." in f:
                            shutil.copy(os.path.join(d[src], f), d[dst])
            else:
                codes[name] = cli.main(argv)
            timings[name] = t() - t0
        return {"codes": codes, "timings": timings, "dirs": d}

    def _read_dir(self, directory: str, suffix: str) -> list[np.ndarray]:
        return [oracles.read_raw(os.path.join(directory, f))[0]
                for f in sorted(os.listdir(directory)) if f.endswith(suffix)]

    def check_round(self, out: dict, outcome: Outcome) -> None:
        d, codes = out["dirs"], out["codes"]
        grid = cp.PhantomSpec().grid  # the CLI's default --size and --spacing
        spacing = grid.spacing

        def op(name: str, command: str, out_dir: str, check) -> None:
            if codes[name] != 0:
                outcome.add(name, [f"exit code {codes[name]}"], ran=False)
                return
            try:
                errors = oracles.manifest_errors(out_dir, command) + check()
            except (OSError, ValueError, KeyError) as exc:
                errors = [f"{type(exc).__name__}: {exc}"]
            outcome.add(name, errors)

        def check_phantom(directory: str, n: int, want_labels=None):
            labels = self._read_dir(directory, "_label.mhd")
            images = self._read_dir(directory, "_image.mhd")
            errors = [] if len(labels) == len(images) == n else [
                f"{len(labels)} label / {len(images)} image volumes, expected {n}"]
            if want_labels is not None and not all(
                    np.array_equal(a, b) for a, b in zip(labels, want_labels)):
                errors.append("written test labels differ from the generated ones")
            return errors

        def train_labels():
            return self._read_dir(d["train"], "_label.mhd")

        op("phantom_train", "phantom", d["train"],
           lambda: check_phantom(d["train"], self.N_TRAIN))
        op("phantom_test", "phantom", d["test"],
           lambda: check_phantom(d["test"], self.N_TEST, self.test_labels))

        def check_stats():
            with open(d["stats"], encoding="utf-8") as fh:
                doc = json.load(fh)
            want = oracles.volume_means(train_labels(), spacing)
            return [f"volume_mean[{e['id']}] {e['volume_mean']} != {want[e['id']]}"
                    for e in doc["classes"]
                    if not np.isclose(e["volume_mean"], want[e["id"]], rtol=1e-9, atol=0.0)]

        op("stats", "stats", os.path.dirname(d["stats"]), check_stats)

        def heatmaps():
            return np.stack([oracles.read_raw(os.path.join(d["atlas"], f"heatmap_{n}.mhd"))[0]
                             for n in oracles.CLASS_NAMES])

        op("atlas", "atlas", d["atlas"], lambda: oracles.heatmap_errors(heatmaps()))

        def check_train():
            with open(d["stats"], encoding="utf-8") as fh:
                doc = json.load(fh)
            nan = float("nan")
            vm, vs = np.full(8, nan), np.full(8, nan)
            cm, mm = np.full((8, 3), nan), np.full((8, 3, 3), nan)
            cn = np.zeros(8, dtype=int)
            for e in doc["classes"]:
                c = e["id"]
                cn[c] = e["n"]
                if e["n"]:
                    vm[c], vs[c] = e["volume_mean"], e["volume_std"]
                    cm[c] = e["centroid_mean"]
                    mm[c] = np.reshape(e["second_moment_mean"], (3, 3))
            with open(os.path.join(d["run"], "trace.csv"), encoding="utf-8") as fh:
                totals = [float(row["total"]) for row in csv.DictReader(fh)]
            want0 = oracles.epoch0_objective(
                cp.experiment_weights(self.LOSS_CONFIG), train_labels(), spacing,
                grid.origin_centered_offset(), vm, vs, cn, cm, mm,
                aux_weight=self.AUX_WEIGHT, aux_target=heatmaps())
            errors = []
            if len(totals) != self.EPOCHS or not np.isclose(totals[0], want0, rtol=1e-9, atol=0.0):
                errors.append(f"epoch-0 objective {totals[:1]} != closed form {want0!r}")
            if not oracles.strictly_decreasing(totals):
                errors.append(f"objective trace not decreasing: {totals}")
            preds = self._read_dir(d["run"], "_pred.mhd")
            if len(preds) != self.N_TEST:
                errors.append(f"{len(preds)} predictions for {self.N_TEST} test cases")
            return errors

        op("train", "train", d["run"], check_train)

        def check_eval(pred_dir: str, eval_dir: str, hd95: bool):
            preds = self._read_dir(pred_dir, ".mhd")
            errors = []
            for k, (pred, gt) in enumerate(zip(preds, self.test_labels)):
                path = os.path.join(eval_dir, f"report_case_{k:03d}_label.json")
                with open(path, encoding="utf-8") as fh:
                    report = json.load(fh)
                oracle = oracles.case_metrics(pred, gt, spacing, hd95)
                errors += oracles.report_errors(report, oracle)
                if hd95 and any(e["hd_mm"] is None for e in oracle["classes"].values()):
                    errors.append(f"case {k}: a class is missing from the near-GT prediction")
            return errors

        op("eval_model", "eval", d["eval_model"],
           lambda: check_eval(d["run"], d["eval_model"], False))
        op("eval_near_gt", "eval", d["eval_near_gt"],
           lambda: check_eval(self.near_gt, d["eval_near_gt"], True))

        def check_report():
            with open(os.path.join(d["report"], "summary.csv"), encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            want = oracles.summary_rows([d["eval_model"], d["eval_near_gt"]])
            if lines[0] != "method,dice_pct,jaccard_pct,hd_mm,assd_mm" or lines[2:] != want:
                return [f"summary.csv rows {lines} != {want}"]
            return []

        op("report", "report", d["report"], check_report)


# ---------------------------------------------------------------------------


class Gradcheck:
    """The five loss gradient checks at 5^3 plus the weight-space check (8^3).

    The checks run at the program's default seed 0 whatever ``--seed`` is:
    at other seeds several of them exceed the 1e-6 gate (see CHANGES.md).
    Set-up is a fresh interpreter importing the package.
    """

    SIZE, CHECK_SEED, GATE = 5, 0, 1e-6

    def __init__(self, seed: int, workdir: str) -> None:
        self.src = os.path.dirname(os.path.dirname(cp.__file__))

    def setup(self) -> None:
        env = dict(os.environ, PYTHONPATH=self.src)
        subprocess.run([sys.executable, "-c", "import cardioprior"], env=env, check=True)

    def run_round(self) -> dict:
        t = time.perf_counter
        reports, timings = {}, {}
        for loss in cp.GRADCHECK_LOSSES:
            t0 = t()
            reports[loss] = cp.gradcheck(loss, size=self.SIZE, seed=self.CHECK_SEED)
            timings[loss] = t() - t0
        t0 = t()
        reports["weight"] = cp.weight_gradcheck(seed=self.CHECK_SEED)
        timings["weight"] = t() - t0
        return {"reports": reports, "timings": timings}

    def check_round(self, out: dict, outcome: Outcome) -> None:
        for name, rep in out["reports"].items():
            errors = []
            if not rep["max_rel_err"] < self.GATE:
                errors.append(f"max_rel_err {rep['max_rel_err']} >= {self.GATE}")
            if name != "weight" and rep["n_entries"] != oracles.N_CLASSES * self.SIZE ** 3:
                errors.append(f"{rep['n_entries']} entries checked")
            outcome.add(f"gradcheck {name}", errors)


WORKLOADS = {"experiment": Experiment, "pipeline": Pipeline, "gradcheck": Gradcheck}

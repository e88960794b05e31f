"""Span tracing from outside the program.

:class:`Tracer` replaces chosen public functions of ``cardioprior`` with
timing wrappers wherever the function object is bound: in its defining
module, in the package namespace and in every module that imported it by
name (``cardioprior.trainer.total_loss`` as well as
``cardioprior.losses.total_loss``). Each call records a span (name, start,
end, parent, phase) in memory; :meth:`Tracer.restore` puts the original
functions back. Self time is a span's duration minus the part of its
interval covered by its child spans, so parallel children (``--jobs``) are
counted once.

A span opened on a worker thread with no open span of its own takes the
main thread's innermost open span as its parent: the main thread is then
blocked in the call that handed the work to the pool.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

#: (module, function) pairs that get a span; names follow ``<module>.<function>``.
TARGETS = (
    ("losses", "softmax"), ("losses", "gdice_ce"), ("losses", "total_loss"),
    ("losses", "volume_loss"), ("losses", "moment_loss"), ("losses", "relation_loss"),
    ("losses", "gradcheck"),
    ("trainer", "train"), ("trainer", "featurize"), ("trainer", "predict"),
    ("trainer", "weight_gradcheck"),
    ("volume", "argmax_labels"), ("volume", "one_hot"),
    ("volume", "read_volume"), ("volume", "write_volume"),
    ("metrics", "evaluate_case"), ("metrics", "overlap"), ("metrics", "surface_distances"),
    ("stats", "case_descriptor"), ("stats", "aggregate"),
    ("align", "build_atlas"), ("align", "gpa_align"), ("align", "apply_transform"),
    ("report", "build_summary"),
    ("phantom", "generate"), ("phantom", "degrade"),
    ("cli", "cmd_phantom"), ("cli", "cmd_stats"), ("cli", "cmd_atlas"),
    ("cli", "cmd_train"), ("cli", "cmd_eval"), ("cli", "cmd_report"),
)

#: Functions reported as calls / ms_per_call / self_ms_per_call.
CALL_STATS = tuple(f"{m}.{f}" for m, f in TARGETS
                   if f not in ("gradcheck", "weight_gradcheck") and m != "cli")

GRADCHECK_LOSSES = ("gdice_ce", "volume", "moment", "relation", "total")
CLI_COMMANDS = ("phantom", "stats", "atlas", "train", "eval", "report")


def _volume_mb(path) -> float:
    stem = os.path.splitext(os.fspath(path))[0]
    return sum(os.path.getsize(stem + ext) for ext in (".mhd", ".raw")) / 1e6


def _write_path(args, kwargs):
    path = os.fspath(kwargs.get("path", args[1] if len(args) > 1 else ""))
    return path if path.endswith(".mhd") else path + ".mhd"


#: Per-call counters: name -> f(args, kwargs) -> {counter: amount}.
_COUNTERS = {
    "trainer.train": lambda a, k: {
        "case_epochs": len(a[1]) * (k.get("cfg") or a[2]).epochs},
    "volume.read_volume": lambda a, k: {"mb": _volume_mb(k.get("path", a[0] if a else ""))},
    "volume.write_volume": lambda a, k: {"mb": _volume_mb(_write_path(a, k))},
}


def _span_name(name: str, args, kwargs) -> str:
    if name == "losses.gradcheck":
        return f"{name}.{kwargs.get('loss_name', args[0] if args else '')}"
    return name


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, start, end, parent, phase]
        self.counters: dict[tuple[str, str, int], float] = defaultdict(float)
        self.phase = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = _span_name(name, args, kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else -1
            with self._lock:
                nid = self._name_ids.get(span_name)
                if nid is None:
                    nid = self._name_ids[span_name] = len(self.names)
                    self.names.append(span_name)
                idx = len(self.spans)
                span = [nid, 0.0, 0.0, parent, self.phase]
                self.spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                for key, amount in count(args, kwargs).items():
                    with self._lock:
                        self.counters[(name, key, span[4])] += amount
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target wherever a loaded ``cardioprior`` module binds it."""
        originals = [(getattr(importlib.import_module(f"cardioprior.{mod_name}"), fn_name),
                      f"{mod_name}.{fn_name}") for mod_name, fn_name in TARGETS]
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "cardioprior" or n.startswith("cardioprior."))]
        for original, name in originals:
            wrapper = self._wrap(original, name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        s = np.asarray(self.spans, dtype=np.float64).reshape(-1, 5)
        return {
            "names": np.asarray(self.names),
            "name_id": s[:, 0].astype(np.int64),
            "start": s[:, 1],
            "end": s[:, 2],
            "parent": s[:, 3].astype(np.int64),
            "phase": s[:, 4].astype(np.int64),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, **self.arrays())

    def self_times(self) -> np.ndarray:
        """Duration of each span minus the union of its children's intervals."""
        a = self.arrays()
        start, end, parent = a["start"], a["end"], a["parent"]
        self_t = end - start
        children: dict[int, list[int]] = defaultdict(list)
        for i in np.nonzero(parent >= 0)[0]:
            children[int(parent[i])].append(int(i))
        for p, kids in children.items():
            covered, cur_lo, cur_hi = 0.0, None, None
            for lo, hi in sorted((max(start[k], start[p]), min(end[k], end[p])) for k in kids):
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            self_t[p] -= covered
        return self_t

    def layer_metrics(self, setups: int, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: name -> (value, unit).

        ``calls`` and ``mb`` are per set-up plus per round (phase 0 is
        set-up, phases >= 1 are rounds), which is an exact count when every
        set-up and every round does the same work. Times are per call,
        averaged over all calls of the run. Every metric is reported on
        every workload: a function never called reports ``calls`` 0 and
        times, MB and per-case-epoch figures of 0.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        self_t = self.self_times()
        by_name = defaultdict(list)
        for i, nid in enumerate(a["name_id"]):
            by_name[self.names[nid]].append(i)

        def calls_of(name: str) -> float:
            idx = by_name.get(name, [])
            in_setup = sum(1 for i in idx if a["phase"][i] == 0)
            return in_setup / setups + (len(idx) - in_setup) / rounds

        def counter_of(name: str, key: str) -> float:
            setup = self.counters.get((name, key, 0), 0.0)
            rest = sum(v for (n, k, ph), v in self.counters.items()
                       if n == name and k == key and ph > 0)
            return setup / setups + rest / rounds

        def mean_ms(idx, values) -> float:
            return 1e3 * float(values[idx].mean()) if idx else 0.0

        out: dict[str, tuple[float, str]] = {}
        for name in CALL_STATS:
            idx = by_name.get(name, [])
            out[f"{name}.calls"] = (calls_of(name), "count")
            out[f"{name}.ms_per_call"] = (mean_ms(idx, dur), "ms")
            out[f"{name}.self_ms_per_call"] = (mean_ms(idx, self_t), "ms")
        train_idx = by_name.get("trainer.train", [])
        case_epochs = sum(v for (n, k, _), v in self.counters.items()
                          if n == "trainer.train" and k == "case_epochs")
        out["trainer.train.self_ms_per_case_epoch"] = (
            1e3 * float(self_t[train_idx].sum()) / case_epochs if train_idx else 0.0, "ms")
        for name in ("volume.read_volume", "volume.write_volume"):
            out[f"{name}.mb"] = (counter_of(name, "mb"), "MB")
        for loss in GRADCHECK_LOSSES:
            idx = by_name.get(f"losses.gradcheck.{loss}", [])
            out[f"losses.gradcheck.{loss}_s"] = (mean_ms(idx, dur) / 1e3, "s")
        idx = by_name.get("trainer.weight_gradcheck", [])
        out["trainer.weight_gradcheck.s"] = (mean_ms(idx, dur) / 1e3, "s")
        for cmd in CLI_COMMANDS:
            idx = by_name.get(f"cli.cmd_{cmd}", [])
            out[f"cli.cmd_{cmd}.s"] = (mean_ms(idx, dur) / 1e3, "s")
            out[f"cli.cmd_{cmd}.self_s"] = (mean_ms(idx, self_t) / 1e3, "s")
        return out

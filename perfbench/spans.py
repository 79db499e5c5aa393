"""Spans around calls into ou_spectra's public functions, from outside the
package.

Each traced function is replaced, in every ou_spectra module that holds it,
by a wrapper that records a span: name, start, end, parent span and job id,
plus counts read off the result. A job is itself a span, so a layer's share
of the job and the CLI's own time (the job minus its child spans) come from
the same records. Only calls made inside a job are recorded. Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager


def _operator_span(args, kwargs) -> str:
    kind = kwargs.get("basis_kind", args[2] if len(args) > 2 else "monomial")
    return "operator.hermite" if kind == "hermite-normal-form" else "operator.matrix"


def _saved_bytes(args, kwargs, result) -> dict:
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path) + os.path.getsize(path + ".json")}


# (module, function, span name or a function of the call's arguments, counts of a call)
LAYERS = (
    ("ou_spectra.model", "validate_model", "model.validate", None),
    ("ou_spectra.model", "solve_lyapunov", "model.lyapunov", None),
    ("ou_spectra.operator", "operator_matrix", _operator_span, None),
    ("ou_spectra.spectral", "spectrum", "spectral.spectrum",
     lambda a, k, r: {"points": len(r.points)}),
    ("ou_spectra.spectral", "generalized_eigenspaces", "spectral.eigenspaces",
     lambda a, k, r: {"groups": len(r.groups), "basis_size": len(r.basis)}),
    ("ou_spectra.exact", "int_matrix_power", "exact.matrix_power", None),
    ("ou_spectra.exact", "nullspace", "exact.nullspace", None),
    ("ou_spectra.spectral", "orthogonality_report", "spectral.orthogonality",
     lambda a, k, r: {"pairs": len(r.pairs)}),
    ("ou_spectra.spectral", "basis_moment_gram", "spectral.moment_gram", None),
    ("ou_spectra.gaussian", "gram_matrix", "gaussian.gram", None),
    ("ou_spectra.simulate", "stationary_ensemble", "simulate.ensemble",
     lambda a, k, r: {"paths": r.paths}),
    ("ou_spectra.simulate", "estimate_pairing", "simulate.pairing", None),
    ("ou_spectra.simulate", "save_ensemble", "simulate.save", _saved_bytes),
    ("ou_spectra.cli", "emit", "cli.emit", None),
)

SPAN_NAMES = (
    "model.validate", "model.lyapunov", "operator.matrix", "operator.hermite",
    "spectral.spectrum", "spectral.eigenspaces", "exact.matrix_power", "exact.nullspace",
    "spectral.orthogonality", "spectral.moment_gram", "gaussian.gram",
    "simulate.ensemble", "simulate.pairing", "simulate.save", "cli.emit",
)


class Tracer:
    """Records spans (name, start, end, parent, job, counts) in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._job: int | None = None

    def _open(self, name: str) -> int:
        self.spans.append({
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "job": self._job,
            "counts": {},
        })
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def job(self, job_id: int):
        self._job = job_id
        index = self._open("job")
        try:
            yield
        finally:
            self._close(index)
            self._job = None

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._job is None:  # calls outside the timed jobs are not traced
                return fn(*args, **kwargs)
            index = self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counts is not None:
                self.spans[index]["counts"] = counts(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace each traced function wherever an ou_spectra module binds it,
        so that every caller goes through the wrapper."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "ou_spectra"]
        for module_name, fn_name, name, counts in LAYERS:
            original = getattr(sys.modules[module_name], fn_name)
            wrapper = self._wrap(original, name, counts)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    # -- per-job figures ----------------------------------------------------

    def per_job(self) -> list[dict]:
        """For each job: its duration, the time of the outermost span of each
        name, the summed counts, the number of spans of each name, and the
        CLI's self time (the job minus its direct child spans)."""
        jobs: dict[int, dict] = {}
        for i, s in enumerate(self.spans):
            if s["name"] == "job":
                jobs[s["job"]] = {"index": i, "job_s": s["end"] - s["start"], "time": {},
                                  "calls": {}, "counts": {}, "children_s": 0.0}
        for s in self.spans:
            if s["name"] == "job":
                continue
            j = jobs[s["job"]]
            duration = s["end"] - s["start"]
            if s["parent"] == j["index"]:
                j["children_s"] += duration
            j["calls"][s["name"]] = j["calls"].get(s["name"], 0) + 1
            for key, value in s["counts"].items():
                key = f"{s['name']}.{key}"
                j["counts"][key] = j["counts"].get(key, 0) + value
            if not self._inside_same_name(s):
                j["time"][s["name"]] = j["time"].get(s["name"], 0.0) + duration
        for j in jobs.values():
            j["self_s"] = j["job_s"] - j["children_s"]
        return [jobs[k] for k in sorted(jobs)]

    def _inside_same_name(self, span: dict) -> bool:
        parent = span["parent"]
        while parent is not None:
            if self.spans[parent]["name"] == span["name"]:
                return True
            parent = self.spans[parent]["parent"]
        return False

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)

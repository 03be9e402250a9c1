"""Spans around the program's public functions, recorded from the outside.

``Tracer.install`` swaps each listed function for a wrapper in every loaded
``dosedistill`` module that holds a reference to it, so calls made through
imported names are caught too; ``uninstall`` puts the originals back. Each
span records its name, start, end, parent span and request id. Spans stay in
memory until ``write``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# (module, function): the layer boundaries a traced run records
TRACED = (
    ("cli", "run_command"),
    ("cli", "build_parser"),
    ("serialize", "load_json"),
    ("serialize", "pack_from_obj"),
    ("serialize", "pack_to_obj"),
    ("serialize", "save_json"),
    ("dataset", "load_and_validate"),
    ("dataset", "split_cohorts"),
    ("feature_selection", "backward_attribute_elimination"),
    ("feature_selection", "subset_score"),
    ("models", "train_mlp"),
    ("models", "fit_least_squares"),
    ("distillation", "sweep_lambda"),
    ("distillation", "train_privileged"),
    ("distillation", "train_distilled"),
    ("evaluation", "evaluate_model"),
    ("profiles", "best_feasible"),
    ("profiles", "train_on_demand"),
    ("synthetic", "generate_synthetic"),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    request: str
    start: int
    end: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


def _teacher_key(args, kwargs) -> str:
    """Identity of a teacher fit's inputs: columns, rows and configuration."""
    from dosedistill.distillation import privileged_feature_indices

    train, profile, config = (list(args) + [None] * 3)[:3]
    train = kwargs.get("train", train)
    profile = kwargs.get("profile", profile)
    config = kwargs.get("config", config)
    cols = privileged_feature_indices(profile, config.privileged_inputs)
    h = hashlib.sha1()
    h.update(repr((cols, config.train)).encode())
    h.update(train.X[:, cols].tobytes())
    h.update(train.y.tobytes())
    return h.hexdigest()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = "setup"
        self._ids = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        # a worker thread's outermost span belongs to the main thread's open span
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            self._ids += 1
            span = Span(self._ids, name, parent.id if parent else None, self.request,
                        time.perf_counter_ns())
            self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack().pop()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                if name == "distillation.train_privileged":
                    span.attrs["input"] = _teacher_key(args, kwargs)
                elif name == "serialize.save_json":
                    span.attrs["file"] = Path(kwargs.get("path", args[0] if args else "")).name
                elif name == "profiles.train_on_demand":
                    disclosure = kwargs.get("disclosure", args[2] if len(args) > 2 else None)
                    span.attrs["disclosed"] = sorted(disclosure.disclosed)
                result = fn(*args, **kwargs)
                if name == "dataset.load_and_validate":
                    span.attrs["rows"] = len(result[1])
                return result
            finally:
                tracer._close(span)

        return wrapper

    def install(self) -> None:
        import importlib

        homes = {m: importlib.import_module(f"dosedistill.{m}") for m, _ in TRACED}
        modules = [m for n, m in list(sys.modules.items())
                   if n == "dosedistill" or n.startswith("dosedistill.")]
        for mod_name, fn_name in TRACED:
            original = getattr(homes[mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        t0 = min((s.start for s in self.spans), default=0)
        path.write_text(json.dumps([
            {"id": s.id, "name": s.name, "parent": s.parent, "request": s.request,
             "start_us": (s.start - t0) / 1e3, "end_us": (s.end - t0) / 1e3,
             **({"attrs": s.attrs} if s.attrs else {})}
            for s in self.spans
        ]) + "\n", encoding="utf-8")


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Per span: its duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, edge = 0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s.id] = (s.end - s.start - covered) / 1e9
    return out


def busy_seconds(spans: list[Span]) -> float:
    """Wall time covered by the union of the spans' intervals."""
    total, edge = 0, None
    for s in sorted(spans, key=lambda s: s.start):
        if edge is None or s.start > edge:
            total += s.end - s.start
            edge = s.end
        elif s.end > edge:
            total += s.end - edge
            edge = s.end
    return total / 1e9


def layer_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: span count, busy time and self time, in seconds."""
    selfs = self_seconds(spans)
    out: dict[str, dict[str, float]] = {}
    for layer in sorted({s.layer for s in spans}):
        mine = [s for s in spans if s.layer == layer]
        out[layer] = {
            "spans": len(mine),
            "busy_s": busy_seconds(mine),
            "self_s": sum(selfs[s.id] for s in mine),
        }
    return out

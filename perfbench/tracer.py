"""Outside-in per-layer tracing of the dendro modules.

The tracer measures the program from outside: it replaces each public
function of the dendro modules, and a few methods, with a wrapper that
records a span (name, parent span, start, end) and hands back the original
result.  A function is replaced wherever the process holds it:

* at its defining module;
* at every ``from dendro.x import f`` copy in other dendro modules;
* on the class, for methods;
* on all three glued map classes, for their shared ``glued_image`` name.

Spans stay in memory until the traced run ends; self time (a span's duration
minus the time its child spans cover) and the counters are derived from them
afterwards.  ``uninstall`` puts every original back, and ``leftover_wrappers``
lets an untraced run assert that it sees none.
"""

from __future__ import annotations

import inspect
import os
import sys
from array import array
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

MODULES = (
    "metric_tree",
    "tree_map",
    "chaos",
    "exact_builder",
    "length_expanding",
    "odometer",
    "gallery",
    "serialize",
)

# (module, class, method) wrapped besides every public module function.
METHODS = (
    ("metric_tree", "Dendrite", "__init__"),
    ("metric_tree", "Dendrite", "vdist"),
    ("tree_map", "TreeMap", "apply"),
    ("tree_map", "TreeMap", "image"),
)
GLUED_CLASSES = ("GluedExactMap", "GluedPointMap", "GluedPieceMap")
GLUED_IMAGE = "exact_builder.glued_image"

# Functions reported one by one; every wrapped span counts toward its
# module's self time.
REPORTED = {
    "metric_tree": (
        "dist", "geodesic_walk", "point_along", "make_subtree",
        "union_subtrees", "intersect_subtrees", "subtree_dist",
        "subtree_diam", "ball", "Dendrite.vdist",
    ),
    "tree_map": ("TreeMap.apply", "TreeMap.image"),
    "chaos": ("verdict", "prox_record", "sens_record", "ly_sample"),
    "exact_builder": ("build_exact", "verify_exact", "build_gch_not_eps",
                      "glued_image"),
    "length_expanding": ("build_pair", "check_length_expanding"),
    "odometer": ("add", "embed_x", "write_traj_csv", "gehman_extend"),
    "gallery": (),
    "serialize": (),
}

_MARK = "__perfbench_span__"
_RECORDS = ("chaos.prox_record", "chaos.sens_record")
_IMAGES = ("tree_map.TreeMap.image", GLUED_IMAGE)
_DEN_BITS = ("metric_tree.dist", "metric_tree.subtree_dist",
             "metric_tree.subtree_diam")
_PHI = "length_expanding.build_phi_on_subtree"


def layer_metric_units() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    metrics = []
    for mod in MODULES:
        metrics.append((f"{mod}.self_s", "s"))
        for fn in REPORTED[mod]:
            metrics += [(f"{mod}.{fn}.calls", "count"),
                        (f"{mod}.{fn}.self_s", "s")]
    metrics += [
        ("metric_tree.dendrites_built", "count"),
        ("metric_tree.max_den_bits", "bits"),
        ("chaos.repeat_image_ratio", "ratio"),
        ("chaos.prox_zero_ratio", "ratio"),
        ("exact_builder.cover_steps", "count"),
        ("length_expanding.lap_retries", "count"),
        ("serialize.bytes_written", "bytes"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return metrics


def _dendro_modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "dendro" or n.startswith("dendro.")) and m is not None]


def _subtree_key(S):
    return (S.vertices, tuple(sorted(S.intervals.items())))


def leftover_wrappers() -> list[str]:
    """Names of tracer wrappers still reachable from the dendro modules."""
    found = []
    for mod in _dendro_modules():
        for attr, val in vars(mod).items():
            if hasattr(val, _MARK):
                found.append(f"{mod.__name__}.{attr}")
            if inspect.isclass(val) and val.__module__ == mod.__name__:
                for meth, fn in vars(val).items():
                    if hasattr(fn, _MARK):
                        found.append(f"{mod.__name__}.{attr}.{meth}")
    return found


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # counters updated where the work happens
        self.repeat_images = 0
        self.record_images = 0
        self._record_seen: dict[int, set] = {}
        self.prox_zero = 0
        self.prox_total = 0
        self.cover_steps = 0
        self.max_den_bits = 0
        self.phi_builds = 0
        self._phi_targets: dict[tuple, object] = {}
        self.bytes_written = 0

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- spans

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one job."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        hook = self._hook_for(name)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                hook(idx, args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, _MARK, name)
        return wrapper

    # -- counters

    def _hook_for(self, name: str):
        if name in _IMAGES:
            return self._on_image
        if name == "chaos.prox_record":
            return self._on_prox
        if name in _DEN_BITS:
            return self._on_value
        if name == _PHI:
            return self._on_phi
        if name == "serialize.dump_json":
            return self._on_dump
        return None

    def _parent_name(self, idx: int):
        parent = self.span_parent[idx]
        return self.names[self.span_name[parent]] if parent >= 0 else None

    def _on_image(self, idx, args, result):
        parent = self._parent_name(idx)
        if parent in _RECORDS:
            seen = self._record_seen.setdefault(self.span_parent[idx], set())
            key = _subtree_key(result)
            self.record_images += 1
            if key in seen:
                self.repeat_images += 1
            else:
                seen.add(key)
        elif parent == "exact_builder.verify_exact":
            self.cover_steps += 1

    def _on_prox(self, idx, args, result):
        self.prox_total += 1
        if result == 0:
            self.prox_zero += 1

    def _on_value(self, idx, args, result):
        bits = Fraction(result).denominator.bit_length()
        if bits > self.max_den_bits:
            self.max_den_bits = bits

    def _on_phi(self, idx, args, result):
        # One build per (space, root) is the first; every further one is a
        # lap retry.  The space is kept so its id stays unique.
        space, root = args[0], args[2]
        self.phi_builds += 1
        self._phi_targets.setdefault((id(space), root), space)

    def _on_dump(self, idx, args, result):
        self.bytes_written += os.path.getsize(args[1])

    # -- install / uninstall

    def install(self) -> None:
        mods = {name: sys.modules[f"dendro.{name}"] for name in MODULES}
        holders = _dendro_modules()
        for name, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(fn, f"{name}.{attr}")
                for holder in holders:
                    for hattr, val in list(vars(holder).items()):
                        if val is fn:
                            self._patch(holder, hattr, wrapper)
        for name, cls_name, meth in METHODS:
            cls = getattr(mods[name], cls_name)
            self._patch(cls, meth, self._wrap(
                vars(cls)[meth], f"{name}.{cls_name}.{meth}"))
        for cls_name in GLUED_CLASSES:
            cls = getattr(mods["exact_builder"], cls_name)
            self._patch(cls, "image", self._wrap(vars(cls)["image"], GLUED_IMAGE))

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results

    def self_times(self) -> tuple[dict, dict]:
        """(calls, self seconds) per span name."""
        n = len(self.span_name)
        covered = [0.0] * n
        start, end, parent = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            nid = self.span_name[i]
            calls[nid] += 1
            self_s[nid] += end[i] - start[i] - covered[i]
        return (dict(zip(self.names, calls)), dict(zip(self.names, self_s)))

    def layer_metrics(self) -> dict:
        """Per-layer metric values, without trace.overhead_ratio."""
        calls, self_s = self.self_times()
        out = {}
        for mod in MODULES:
            out[f"{mod}.self_s"] = sum(
                s for name, s in self_s.items() if name.startswith(f"{mod}.")
            )
            for fn in REPORTED[mod]:
                key = f"{mod}.{fn}"
                out[f"{key}.calls"] = calls.get(key, 0)
                out[f"{key}.self_s"] = self_s.get(key, 0.0)
        out["metric_tree.dendrites_built"] = calls.get(
            "metric_tree.Dendrite.__init__", 0)
        out["metric_tree.max_den_bits"] = self.max_den_bits
        out["chaos.repeat_image_ratio"] = _ratio(self.repeat_images,
                                                 self.record_images)
        out["chaos.prox_zero_ratio"] = _ratio(self.prox_zero, self.prox_total)
        out["exact_builder.cover_steps"] = self.cover_steps
        out["length_expanding.lap_retries"] = (
            self.phi_builds - len(self._phi_targets))
        out["serialize.bytes_written"] = self.bytes_written
        return out

    def counts(self) -> dict:
        """The exact bases of the ratios, for the run's own report."""
        return {
            "repeat_images": self.repeat_images,
            "record_images": self.record_images,
            "prox_zero": self.prox_zero,
            "prox_records": self.prox_total,
            "spans": len(self.span_name),
        }


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0

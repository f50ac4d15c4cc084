"""In-memory span tracer installed on evifuse's public functions.

Wrappers replace module attributes, including the names other evifuse
modules bound with ``from ... import``, and are removed again by
``uninstall``. Each call records one span (id, parent id, name, start, end)
and may bump work counters; nothing is written until ``write``.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import os
import sys
from collections import Counter
from time import perf_counter
from typing import Callable

ROOT_ID = 0


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _file_size(pos: int, name: str) -> Callable:
    return lambda args, kwargs: os.path.getsize(_arg(args, kwargs, pos, name))


# (module, function) -> {counter: amount per call, computed from the arguments}
TARGETS: dict[tuple[str, str], dict[str, Callable]] = {
    ("simulate", "simulate"): {},
    ("experiment", "normalize_methods"): {},
    ("experiment", "evaluate_dataset"): {},
    ("experiment", "run_experiment"): {},
    ("calibration", "build_confusion"): {
        "calibration.pairs_counted": lambda a, k: len(_arg(a, k, 0, "preds")),
    },
    ("calibration", "vote_weights"): {},
    ("calibration", "conditional_probs"): {},
    ("voting", "tally"): {},
    ("voting", "decide_majority"): {},
    ("voting", "decide_absolute_majority"): {},
    ("voting", "decide_threshold"): {},
    ("possibility", "to_possibility"): {},
    ("possibility", "combine"): {},
    ("possibility", "decide_possibilistic"): {},
    ("belief", "conjunctive_combine"): {
        "belief.focal_pairs": lambda a, k: len(_arg(a, k, 0, "m1"))
        * len(_arg(a, k, 1, "m2")),
    },
    ("belief", "combine_all"): {},
    ("belief", "appriou_mass"): {},
    ("belief", "decide_pignistic"): {},
    # Distances computed, from array sizes: one per prototype for the
    # neighbour search, one more per neighbour's mass.
    ("belief", "denoeux_classify_mass"): {
        "belief.knn_distance_evals": lambda a, k: _arg(a, k, 1, "ts").size,
    },
    ("belief", "denoeux_mass"): {"belief.knn_distance_evals": lambda a, k: 1},
    ("belief", "default_gamma"): {},
    ("io", "load_config"): {"io.bytes_read": _file_size(0, "path")},
    ("io", "load_dataset"): {"io.bytes_read": _file_size(0, "path")},
    ("io", "save_dataset"): {"io.bytes_written": _file_size(1, "path")},
    ("io", "save_report"): {"io.bytes_written": _file_size(1, "path")},
}


class Tracer:
    """Collects spans and counters; one instance per traced section."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.counts: Counter[str] = Counter()
        self._stack = [ROOT_ID]
        self._next_id = ROOT_ID + 1
        self._patched: list[tuple[object, str, object]] = []

    def _name_index(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name_idx: int, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, name_idx, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around benchmark code."""
        name_idx = self._name_index(name)
        sid, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name_idx, start)

    def _wrap(self, name: str, fn: Callable, counters: dict[str, Callable]):
        name_idx = self._name_index(name)
        calls = f"{name}.calls"
        counts, open_, close = self.counts, self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = open_()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid, parent, name_idx, start)
            counts[calls] += 1
            for counter, amount in counters.items():
                counts[counter] += amount(args, kwargs)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target wherever an evifuse module holds a reference to it."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "evifuse"]
        for (mod_name, fn_name), counters in TARGETS.items():
            original = getattr(sys.modules[f"evifuse.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, counters)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # analysis

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its direct children cover."""
        own = {sid: end - start for sid, _, _, start, end in self.spans}
        for sid, parent, _, start, end in self.spans:
            if parent != ROOT_ID:
                own[parent] -= end - start
        return own

    def busy(self, names: set[str]) -> float:
        """Wall time inside the named spans, counting nested ones once."""
        name_of = {sid: self.names[n] for sid, _, n, _, _ in self.spans}
        parent_of = {sid: parent for sid, parent, _, _, _ in self.spans}
        total = 0.0
        for sid, parent, n, start, end in self.spans:
            if self.names[n] not in names:
                continue
            while parent != ROOT_ID and name_of[parent] not in names:
                parent = parent_of[parent]
            if parent == ROOT_ID:
                total += end - start
        return total

    def self_time(self, prefix: str) -> float:
        """Summed self time of every span whose name starts with the prefix."""
        own = self.self_times()
        return sum(
            own[sid]
            for sid, _, n, _, _ in self.spans
            if self.names[n].startswith(prefix)
        )

    def names_with_prefix(self, prefix: str) -> set[str]:
        return {n for n in self.names if n.startswith(prefix)}

    def check_self_times(self, wall: float, tol: float = 1e-3) -> str | None:
        """The self times of all spans must sum to the traced section's wall time.

        ``wall`` is measured by the caller around the traced section, which
        must open one top-level span covering everything it traces.
        """
        own = self.self_times()
        total_self = sum(own.values())
        if abs(total_self - wall) > tol:
            return f"self times sum to {total_self!r} s, traced wall time is {wall!r} s"
        if any(value < -1e-9 for value in own.values()):
            return "a span's children cover more than its own duration"
        return None

    def write(self, path: str) -> None:
        """Spans as gzipped JSON lines, times relative to the first span's start."""
        t0 = min((start for _, _, _, start, _ in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, n, start, end in sorted(self.spans, key=lambda s: s[3]):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": self.names[n],
                            "start_s": start - t0,
                            "end_s": end - t0,
                        }
                    )
                    + "\n"
                )
            fh.write(json.dumps({"counts": dict(sorted(self.counts.items()))}) + "\n")

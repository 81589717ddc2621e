"""Outside-in layer trace: wraps public udfield functions from the benchmark's
own code, without touching src/.

A name bound with `from X import f` is a separate reference in every module
that imported it, so `installed()` replaces the original function object at
every attribute of every loaded udfield module that holds it, and restores
them all on exit.  `NumberField.embed` is patched on the class, which also
covers `FieldElement.embed`.

Self time is a span's duration minus the time of the wrapped spans it
called.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


def _count_len(key: str) -> Callable:
    return lambda counters, args, kwargs, result: counters.update({key: len(result)})


def _count_principality(counters, args, kwargs, result):
    counters[f"ideals.is_principal.{result.status}"] += 1


def _count_units(counters, args, kwargs, result):
    counters["construct.units_emitted"] += len(result.units)


def _count_file_bytes(counters, args, kwargs, result):
    path = kwargs.get("path", args[-1] if len(args) > 1 else None)
    if isinstance(path, str):
        counters["serialize.bytes_written"] += os.path.getsize(path)


# (span name, module, attribute, counter).  Two functions may share a span:
# `count --method exact` builds its field from the sidecar, not build_field.
TARGETS = (
    ("cli", "udfield.cli", "main", None),
    ("numberfield.build_field", "udfield.cli", "build_field", None),
    ("numberfield.build_field", "udfield.cli", "_field_from_dict", None),
    ("numberfield.detect_cm", "udfield.numberfield", "detect_cm", None),
    ("numberfield.embed", "udfield.numberfield", "NumberField.embed", None),
    ("ideals.split_prime", "udfield.ideals", "split_prime", None),
    ("ideals.is_principal", "udfield.ideals", "is_principal", _count_principality),
    ("construct.pigeonhole", "udfield.construct", "pigeonhole_units", _count_units),
    ("enumeration.polydisc", "udfield.enumeration", "lattice_points_in_polydisc",
     _count_len("enumeration.polydisc.points_returned")),
    ("construct.enumerate_window", "udfield.construct", "enumerate_window", None),
    ("construct.build_pointset", "udfield.construct", "build_pointset", None),
    ("counting.unit_pair_indices", "udfield.counting", "unit_pair_indices",
     _count_len("counting.unit_pair_indices.pairs")),
    ("counting.count_float", "udfield.counting", "count_float", None),
    ("serialize.write_pointset_csv", "udfield.serialize", "write_pointset_csv",
     _count_file_bytes),
    ("serialize.write_svg", "udfield.serialize", "write_svg", _count_file_bytes),
    ("serialize.dump_json", "udfield.serialize", "dump_json", _count_file_bytes),
)


class LayerTrace:
    """Calls, total and self time per span, plus integer counters, summed
    over every traced call."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: Dict[str, float] = Counter()
        self.self_time: Dict[str, float] = Counter()
        self.counters: Counter = Counter()
        self._children: List[float] = []   # wrapped-child time per open span

    def _wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            self._children.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                children = self._children.pop()
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - children
                if self._children:
                    self._children[-1] += dt
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every TARGETS function at every import site; restore on exit."""
        saved: List[Tuple[object, str, object]] = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "udfield" or n.startswith("udfield."))]
        try:
            for name, modname, attr, count in TARGETS:
                owner = sys.modules[modname]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[attr]
                    saved.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(name, original, count))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, count)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            saved.append((mod, key, value))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for holder, key, value in reversed(saved):
                setattr(holder, key, value)

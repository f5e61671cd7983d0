"""Spans around the public functions of each prodcong layer, from outside.

`Tracer.install` replaces each traced function at every module binding that
holds it (for example both `prodcong.growth.is_subgroup` and any name imported
elsewhere), so calls made inside the package are seen too. A span is
(name, start, end, parent, job); spans stay in memory until the run writes
them to a sidecar file. `Tracer.restore` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

from checks import phi

# Calls whose operands exceed this many cells take the row-loop path of the
# pairwise kernel in the seed code; the rest build one outer table.
ROW_PATH_CELLS = 1 << 24


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_pairwise(counts, key, args, kwargs, result):
    s, t = _arg(args, kwargs, 0, "s"), _arg(args, kwargs, 1, "t")
    cells = s.cardinality * t.cardinality
    counts[f"{key}.cells"] += cells
    counts[f"{key}.out"] += int(result.mask.sum())
    if cells > ROW_PATH_CELLS:
        counts["residues.row_path_cells"] += cells


def _count_subgroup(counts, key, args, kwargs, result):
    s = _arg(args, kwargs, 0, "s")
    if s.cardinality != phi(s.modulus):
        counts[f"{key}.cells"] += s.cardinality**2


# (module, attribute, argument that splits the span name, counter)
TRACED = (
    ("cli", "main", None, None),
    ("report", "Report.render", None,
     lambda c, k, a, kw, r: c.update({"report.bytes": len(r.encode())})),
    ("residues", "iterated_interval_product", "with_witness", None),
    ("residues", "product_set", None, _count_pairwise),
    ("residues", "sum_set", None, _count_pairwise),
    ("residues", "coverage_check", None, None),
    ("solver", "solve", None,
     lambda c, k, a, kw, r: c.update({"solver.solvable": int(r.solvable)})),
    ("solver", "abc_scan", None,
     lambda c, k, a, kw, r: c.update({"solver.abc_scan.grid_cells": r.total})),
    ("solver", "threshold_scan", None,
     lambda c, k, a, kw, r: c.update({"solver.threshold_scan.lengths_tried": len(r.curve)})),
    ("growth", "power_set_sequence", "with_witness",
     lambda c, k, a, kw, r: c.update({"growth.chain_steps": len(r.cards) - 1,
                                      f"{k}.chain_steps": len(r.cards) - 1})),
    ("growth", "is_subgroup", None, _count_subgroup),
    ("growth", "power_residue_index", None, None),
    ("growth", "olson_bound_check", None, None),
    ("smooth", "greedy_factor", None, None),
    ("smooth", "build_smooth_table", None,
     lambda c, k, a, kw, r: c.update({"smooth.build_smooth_table.cells": r.x_max})),
    ("charsums", "product_energy", None, None),
    ("charsums", "product_energy_via_characters", None, None),
    ("charsums", "burgess_profile", None, None),
    ("arith", "build_field_context", None, None),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, key, fn, split, count):
        sig = inspect.signature(fn) if split else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = key
            if split:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                name = f"{key}.{'witnessed' if bound.arguments[split] else 'plain'}"
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job))
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, self.spans[index][3], self.job)
            if count is not None:
                count(self.counts, name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at each module binding that holds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "prodcong" or n.startswith("prodcong.")]
        for mod_name, attr, split, count in TRACED:
            owner = sys.modules[f"prodcong.{mod_name}"]
            key = f"{mod_name}.{attr.split('.')[-1]}"
            if "." in attr:  # a method: patch the class once
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(key, original, split, count))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(key, original, split, count)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def restore(self) -> None:
        while self._saved:
            obj, name, original = self._saved.pop()
            setattr(obj, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def write(self, path) -> None:
        """Spans as JSON lines: name, start and end (s), parent index, job index."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def times(self):
        """Per span name: calls, busy seconds (span durations) and self seconds
        (durations minus the time their direct children cover)."""
        calls, busy, child = Counter(), defaultdict(float), defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
        return calls, busy, self_s

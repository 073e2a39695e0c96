"""Spans around calls into cyclocone's public functions, recorded from outside.

A child process installs a `Tracer` after importing cyclocone.  `install`
replaces every module attribute that is one of the traced functions with a
wrapper, in every cyclocone module that binds it (modules import functions
by name, so patching only the defining module would miss callers).  Each
wrapped call appends a span ``[name, start_ns, end_ns, parent, note]`` to an
in-memory list; the list is written out once, when the child ends.

`summarize` turns the span files of one pass into per-layer numbers: calls,
inclusive time and self time per traced name, plus the exact counts the
benchmark compares between passes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# (defining module, attribute, span name).  The span name is the layer
# metric prefix; `_string_class_table` is private but is the table that
# `count_Q_chi` walks, so it gets a public-looking name.
TARGETS = (
    ("cyclocone.partitions", "residue", "partitions.residue"),
    ("cyclocone.partitions", "partitions_of", "partitions.partitions_of"),
    ("cyclocone.rootlattice", "generate_Rn", "rootlattice.generate_Rn"),
    ("cyclocone.rootlattice", "pair", "rootlattice.pair"),
    ("cyclocone.abelian", "smith_normal_form", "abelian.smith_normal_form"),
    ("cyclocone.abelian", "cokernel", "abelian.cokernel"),
    ("cyclocone.orbits", "enumerate_orbits", "orbits.enumerate_orbits"),
    ("cyclocone.orbits", "decompose", "orbits.decompose"),
    ("cyclocone.orbits", "fundamental_group", "orbits.fundamental_group"),
    ("cyclocone.orbits", "_string_class_table", "orbits.string_class_table"),
    ("cyclocone.orbits", "count_Q_chi", "orbits.count_Q_chi"),
    ("cyclocone.orbits", "enumerate_Q_chi", "orbits.enumerate_Q_chi"),
    ("cyclocone.params", "chi_to_kappa", "params.chi_to_kappa"),
    ("cyclocone.params", "hecke_params", "params.hecke_params"),
    ("cyclocone.params", "ariki_product_nonzero", "params.ariki_product_nonzero"),
    ("cyclocone.report", "count_multipartitions", "report.count_multipartitions"),
    ("cyclocone.report", "orbit_report", "report.orbit_report"),
    ("cyclocone.report", "semisimplicity_report", "report.semisimplicity_report"),
    ("cyclocone.cli", "run", "cli.run"),
)


def string_class_key(label) -> tuple:
    """The set of (top vertex, length) string classes of a label.

    pi1 depends on a label only through this set; the benchmark derives it
    itself so that the count of distinct keys does not depend on how the
    program computes pi1.
    """
    ell = label.ell
    return ell, frozenset(
        ((i + j - 1) % ell, length)
        for i, comp in enumerate(label.nu)
        for j, length in enumerate(comp.parts, start=1)
    )


class Tracer:
    """In-memory span recorder for one process (one run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.labels: dict[tuple, int] = {}
        self.keys: set = set()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced

    def _notes(self) -> dict:
        def labels(args, result):
            self.labels[args] = len(result)

        def key(args, result):
            self.keys.add(string_class_key(args[0]))

        return {
            "orbits.enumerate_orbits": labels,
            "orbits.fundamental_group": key,
            # count_Q_chi walks every group of the string-class table.
            "orbits.string_class_table": lambda args, result: len(result[2]),
        }

    def install(self) -> None:
        """Wrap every traced function wherever a loaded cyclocone module binds it."""
        notes = self._notes()
        modules = [
            m
            for name, m in list(sys.modules.items())
            if name == "cyclocone" or name.startswith("cyclocone.")
        ]
        for module_name, attr, span_name in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(span_name, original, notes.get(span_name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def dump(self, path: Path, **extra) -> None:
        names: dict[str, int] = {}
        rows = []
        for name, start, end, parent, note in self.spans:
            idx = names.setdefault(name, len(names))
            rows.append([idx, start, end, parent, note])
        record = {
            "run_id": self.run_id,
            "names": list(names),
            "spans": rows,
            "labels": sum(self.labels.values()),
            "distinct_keys": len(self.keys),
            **extra,
        }
        path.write_text(json.dumps(record, separators=(",", ":")))


def summarize(paths: list[Path]) -> dict:
    """Per-name calls/inclusive/self time, plus exact counts, over span files."""
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counts = {"labels": 0, "distinct_keys": 0, "groups_walked": 0, "roots": 0}
    import_s = []
    for path in paths:
        record = json.loads(path.read_text())
        names = record["names"]
        spans = record["spans"]
        child_ns = [0] * len(spans)
        for idx, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (idx, start, end, parent, note) in enumerate(spans):
            name = names[idx]
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + dur / 1e9
            self_s[name] = self_s.get(name, 0.0) + (dur - child_ns[i]) / 1e9
            parent_name = names[spans[parent][0]] if parent >= 0 else None
            if name == "orbits.string_class_table" and parent_name == "orbits.count_Q_chi":
                counts["groups_walked"] += note
            if name == "rootlattice.pair" and parent_name == "report.semisimplicity_report":
                counts["roots"] += 1
        counts["labels"] += record["labels"]
        counts["distinct_keys"] += record["distinct_keys"]
        if "import_s" in record:
            import_s.append(record["import_s"])
    return {
        "calls": calls,
        "incl": incl,
        "self": self_s,
        "counts": counts,
        "import_s": import_s,
    }

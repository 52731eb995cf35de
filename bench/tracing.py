"""Spans around calls into tauword's public functions, recorded from outside.

``Tracer`` replaces each traced function or method with a wrapper, in every
module that binds it (``word_expr`` binds ``reduce`` and friends through
``from .free_words import``), and puts the originals back on exit.  Each call
records a span: name, start, end and parent span.  Spans of one op lie in one
contiguous index range, which is the op's id.  Spans stay in compact arrays
in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

MODULES = ("cli", "word_expr", "free_words", "orders", "rearrange", "specker", "james_monoid")

# (module, attribute path, span name); several methods may share one span name
TARGETS = [
    ("cli", "main", "cli.main"),
    *(("word_expr", f, f"word_expr.{f}") for f in (
        "ensure_valid", "from_json", "contributing_factors", "project", "equal_up_to",
        "commutator_factorization", "apply_bijection", "eta")),
    *(("free_words", f, f"free_words.{f}") for f in (
        "reduce", "concat_all", "invert", "delete_above", "delete_letter", "commutator_decompose")),
    *(("orders", f, f"orders.{f}") for f in (
        "position_key", "theta", "compare", "least_component_in", "Embedding.index_of_component",
        "ExtendedBijection.phi")),
    ("rearrange", "is_bijection", "rearrange.is_bijection"),
    *(("rearrange", f"{c}.evaluate", "rearrange.evaluate")
      for c in ("FiniteSupport", "BlockPermute", "Compose", "SparseEmbed")),
    *(("rearrange", f"{c}.eventual_structure", "rearrange.eventual_structure")
      for c in ("FiniteSupport", "BlockPermute", "Compose")),
    *(("specker", f, f"specker.{f}") for f in (
        "smith_normal_form", "h1_from_presentation", "ha_canonical_rep", "griffiths_image")),
    *(("james_monoid", f, f"james_monoid.{f}") for f in (
        "stage_tables", "nbhd_mask", "sweep_standard_nbhds", "word_nbhd_stats", "minimal_open",
        "topologies_agree", "fiber_counts_by_pass")),
]

# work counted where it happens: the size of each result
SIZES = {
    "word_expr.contributing_factors": ("factors_out", len),
    "free_words.reduce": ("syllables_out", lambda w: len(w.syllables)),
    "free_words.commutator_decompose": ("pairs_out", len),
}


def _module(name):
    return sys.modules[f"tauword.{name}"]


def _bindings():
    """(owner, attribute, original, span name) for every binding of every target."""
    out = []
    for mod_name, path, span in TARGETS:
        owner = _module(mod_name)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = owner.__dict__[attr]
        out.append((owner, attr, original, span))
        if not classes:
            for other in MODULES:
                mod = _module(other)
                if mod is not owner and mod.__dict__.get(attr) is original:
                    out.append((mod, attr, original, span))
    return out


def installed_wrappers() -> list[str]:
    """Every module or class attribute that is still a tracing wrapper."""
    found = []
    for mod_name in MODULES:
        mod = _module(mod_name)
        owners = [mod] + [v for v in vars(mod).values() if isinstance(v, type) and v.__module__ == mod.__name__]
        for owner in owners:
            found += [f"{owner.__name__}.{k}" for k, v in vars(owner).items() if hasattr(v, "__bench_span__")]
    return found


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ops: list[tuple[str, int, int]] = []  # (op kind, first span, end span)
        self.sizes = {f"{span}.{label}": 0 for span, (label, _) in SIZES.items()}
        self._stack = [-1]
        self._saved = []

    def __enter__(self):
        for owner, attr, original, span in _bindings():
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def op(self, kind: str, fn):
        """Run one op; its spans share the index range recorded for it."""
        first = len(self.name)
        try:
            return fn()
        finally:
            self.ops.append((kind, first, len(self.name)))

    def _wrap(self, fn, span):
        nid = self._ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        size = SIZES.get(span)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if size is not None:
                self.sizes[f"{span}.{size[0]}"] += size[1](result)
            return result

        wrapper.__bench_span__ = span
        return wrapper

    def metrics(self) -> dict[str, float]:
        """calls, inclusive seconds (outermost spans only), self seconds, sizes,
        and each module's share of all self time."""
        n = len(self.name)
        names, parents = self.name, self.parent
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i in range(n):
            if parents[i] >= 0:
                child[parents[i]] += dur[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        incl = defaultdict(float)
        for i in range(n):
            nid = names[i]
            calls[nid] += 1
            self_s[nid] += dur[i] - child[i]
            p = parents[i]
            while p >= 0 and names[p] != nid:
                p = parents[p]
            if p < 0:
                incl[nid] += dur[i]
        out: dict[str, float] = {}
        for nid, span in enumerate(self.names):
            out[f"{span}.calls"] = calls[nid]
            out[f"{span}.s"] = incl[nid]
            out[f"{span}.self_s"] = self_s[nid]
        out.update(self.sizes)
        total = sum(self_s.values()) or 1.0
        for mod in MODULES:
            share = sum(v for nid, v in self_s.items() if self.names[nid].startswith(mod + "."))
            out[f"{mod}.self_share"] = share / total
        return out

    def write(self, path: Path) -> None:
        """Spans as four binary columns plus a JSON header naming them."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "ops": self.ops,
            "count": len(self.name),
            "columns": [["name", "H"], ["parent", "i"], ["start", "d"], ["end", "d"]],
        }
        path.with_suffix(".json").write_text(json.dumps(header))
        with open(path.with_suffix(".bin"), "wb") as fh:
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(fh)

"""Spans around the program's layers, recorded from outside the program.

``Tracer.install`` rebinds public functions at the module bindings their
callers use (``rwedf.classify.difference_profile``, ``rwedf.search.classify``,
...), wraps ``DisjointFamily.translate`` with a counter, and puts a timed
``cached_property`` around ``FiniteGroup.diff_rows``.  ``uninstall`` puts the
originals back.  A binding the program no longer has raises ``LookupError``,
which stops the traced run: a layer that is not measured must not read as a
layer that takes no time.

A span is (name, start, end, parent, run id, attributes).  Spans stay in
memory and are written out at the end of the run.  A span's self time is its
duration minus the durations of its direct children; everything runs on one
thread, so children never overlap.

``LAYER_METRICS`` lists every per-layer metric with the end-to-end metric,
and workload, that it should move.
"""
from __future__ import annotations

import importlib
import json
import os
from collections import defaultdict
from functools import cached_property
from time import perf_counter
from typing import Dict, List, Optional

# (name, unit, better, end-to-end metric it should move)
LAYER_METRICS = [
    ("groups.table_s", "s", "lower",
     "wall_rel and peak_rss_mb on verify, a little on simulate, ~0 on search/census"),
    ("groups.table_builds", "count", "lower", "same as groups.table_s"),
    ("groups.table_cells", "count", "lower", "peak_rss_mb on verify and simulate"),
    ("family.profile_s", "s", "lower", "wall_rel on verify and simulate"),
    ("family.profile_calls", "count", "lower", "wall_rel on verify and simulate"),
    ("family.cross_pairs", "count", "lower", "wall_rel on verify"),
    ("family.pairs_per_s", "1/s", "higher", "wall_rel and families/s on verify"),
    ("classify.self_s", "s", "lower",
     "wall_rel on verify; leaf checks on search; cross-checks on census"),
    ("classify.calls", "count", "lower", "wall_rel on verify, search and census"),
    ("search.enumerate_s", "s", "lower", "wall_rel on search"),
    ("search.nodes", "count", "lower", "wall_rel on search"),
    ("search.pruned", "count", "higher", "wall_rel on search"),
    ("search.prune_ratio", "ratio", "higher", "wall_rel on search"),
    ("search.nodes_per_s", "1/s", "higher", "wall_rel on search"),
    ("search.hits", "count", "higher", "none: fixed by the job list"),
    ("search.leaf_classify_calls", "count", "lower", "wall_rel on search"),
    ("search.leaf_classify_s", "s", "lower", "wall_rel on search"),
    ("search.hit_ratio", "ratio", "higher", "wall_rel on search"),
    ("search.translate_calls", "count", "lower", "wall_rel on search (Z_11 dedup job only)"),
    ("search.dedup_s", "s", "lower", "wall_rel on search (Z_11 dedup job only)"),
    ("search.census_families", "count", "higher", "none: fixed by the job list"),
    ("search.census_families_per_s", "1/s", "higher", "wall_rel and families/s on census"),
    ("search.census_cross_checks", "count", "higher", "none: fixed by the job list"),
    ("search.census_cross_check_s", "s", "lower", "wall_rel on census"),
    ("simulate.play_s", "s", "lower", "wall_rel, trials/s and peak_rss_mb on simulate"),
    ("simulate.trials", "count", "higher", "none: fixed by the job list"),
    ("simulate.trials_per_s", "1/s", "higher", "wall_rel and trials/s on simulate"),
    ("simulate.profile_s", "s", "lower", "wall_rel on simulate"),
    ("files.read_s", "s", "lower", "wall_rel on verify and simulate"),
    ("files.write_s", "s", "lower", "wall_rel on search"),
    ("files.bytes_written", "bytes", "lower", "wall_rel on search"),
    ("cli.self_s", "s", "lower", "wall_rel on verify, search and simulate; nothing on census"),
    ("constructions.build_s", "s", "lower", "setup_s"),
    ("trace.overhead", "ratio", "lower", "none: a traced over an untraced pass, in kernel units"),
]


def _cross_pairs(args, kwargs, result) -> dict:
    sizes = args[0].sizes
    total = sum(sizes)
    return {"cross_pairs": total * total - sum(k * k for k in sizes)}


def _search_result(args, kwargs, result) -> dict:
    return {"nodes": result.stats.nodes, "pruned": result.stats.pruned,
            "hits": len(result.families)}


def _census_result(args, kwargs, result) -> dict:
    return {"families": result.families, "cross_checked": result.cross_checked}


def _trials(args, kwargs, result) -> dict:
    return {"trials": result.trials}


def _bytes_written(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _attrs_of(attrs, args, kwargs, result) -> Optional[dict]:
    """Span attributes from a call; a changed signature or result leaves them out."""
    if attrs is None:
        return None
    try:
        return attrs(args, kwargs, result)
    except (AttributeError, TypeError, IndexError, OSError) as exc:
        return {"attrs_error": repr(exc)}


class Tracer:
    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent, run_id, attrs]
        self.stack: List[int] = []
        self.run_id = "setup"
        self.translate_calls: Dict[str, int] = defaultdict(int)
        self.installed: List[str] = []
        self._undo: List[tuple] = []

    # -- spans ----------------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), None, parent, self.run_id, None])
        self.stack.append(index)
        return index

    def end(self, index: int, attrs: Optional[dict] = None) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        span[5] = attrs
        self.stack.pop()

    def build(self, name, args):
        """A set-up constructor call inside a constructions.build span."""
        import rwedf

        index = self.begin("constructions.build")
        try:
            return getattr(rwedf, name)(*args)
        finally:
            self.end(index)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            raise LookupError(f"cannot trace {owner.__name__}.{attr}: the program has no "
                              f"such binding; perfbench/tracer.py must follow the change")
        tracer = self

        def wrapped(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(index, {"error": True})
                raise
            tracer.end(index, _attrs_of(attrs, args, kwargs, result))
            return result

        self._rebind(owner, attr, fn, wrapped)

    def _rebind(self, owner, attr, old, new) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))
        self.installed.append(f"{getattr(owner, '__name__', owner)}.{attr}")

    def install(self) -> None:
        # `import rwedf.classify` would give the function that the package
        # re-exports under the module's name, so fetch the modules themselves.
        rwedf = importlib.import_module("rwedf")
        cli, classify, family, search, simulate = (
            importlib.import_module(f"rwedf.{name}")
            for name in ("cli", "classify", "family", "search", "simulate"))
        from rwedf.family import DisjointFamily
        from rwedf.groups import FiniteGroup

        self.installed = []
        self._wrap(cli, "main", "cli")
        self._wrap(cli, "read_family", "files.read")
        self._wrap(cli, "write_families_jsonl", "files.write", _bytes_written)
        for module in (cli, search):
            self._wrap(module, "classify", "classify")
        for module in (classify, simulate, search, family):
            self._wrap(module, "difference_profile", "family.profile", _cross_pairs)
        self._wrap(cli, "enumerate_families", "search.enumerate", _search_result)
        # The one private binding: the translation dedup pass of the search.
        self._wrap(search, "_translation_classes", "search.dedup")
        self._wrap(rwedf, "rwedf_census", "search.census", _census_result)
        for attr in ("play", "play_best_response", "play_random_delta"):
            self._wrap(cli, attr, "simulate.play", _trials)

        translate = DisjointFamily.translate
        tracer = self

        def counted(family, g):
            tracer.translate_calls[tracer.run_id] += 1
            return translate(family, g)

        self._rebind(DisjointFamily, "translate", translate, counted)

        table = FiniteGroup.__dict__.get("diff_rows")
        if not isinstance(table, cached_property):
            raise LookupError("cannot trace FiniteGroup.diff_rows: it is no longer a "
                              "cached_property; perfbench/tracer.py must follow the change")

        def timed(group):
            index = tracer.begin("groups.table")
            try:
                return table.func(group)
            finally:
                tracer.end(index, {"cells": group.order ** 2})

        prop = cached_property(timed)
        prop.__set_name__(FiniteGroup, "diff_rows")
        self._rebind(FiniteGroup, "diff_rows", table, prop)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, run_id, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id,
                                     "attrs": attrs}) + "\n")

    def layer_metrics(self, prefix: str, traced: float, untraced: float) -> dict:
        """Every LAYER_METRICS value over the spans whose run id starts with prefix."""
        spans = self.spans
        chosen = [i for i, s in enumerate(spans) if s[4].startswith(prefix)]
        dur = {i: spans[i][2] - spans[i][1] for i in chosen}
        child_time = defaultdict(float)
        children = defaultdict(list)
        for i in chosen:
            parent = spans[i][3]
            if parent is not None:
                child_time[parent] += dur[i]
                children[parent].append(i)

        def self_time(i):
            return dur[i] - child_time[i]

        def named(name):
            return [i for i in chosen if spans[i][0] == name]

        def attr(i, key):
            return (spans[i][5] or {}).get(key, 0)

        def under(i, name):
            """Whether span i has an ancestor called name."""
            parent = spans[i][3]
            while parent is not None:
                if spans[parent][0] == name:
                    return True
                parent = spans[parent][3]
            return False

        def ratio(num, den):
            return num / den if den else 0.0

        tables = named("groups.table")
        profiles = named("family.profile")
        enums = named("search.enumerate")
        leaves = [c for e in enums for c in children[e] if spans[c][0] == "classify"]
        classifying = [e for e in enums
                       if any(spans[c][0] == "classify" for c in children[e])]
        censuses = named("search.census")
        checks = [c for e in censuses for c in children[e] if spans[c][0] == "classify"]
        plays = named("simulate.play")
        writes = named("files.write")

        out = {}
        out["groups.table_s"] = sum(dur[i] for i in tables)
        out["groups.table_builds"] = len(tables)
        out["groups.table_cells"] = sum(attr(i, "cells") for i in tables)
        out["family.profile_s"] = sum(self_time(i) for i in profiles)
        out["family.profile_calls"] = len(profiles)
        out["family.cross_pairs"] = sum(attr(i, "cross_pairs") for i in profiles)
        out["family.pairs_per_s"] = ratio(out["family.cross_pairs"], out["family.profile_s"])
        out["classify.self_s"] = sum(self_time(i) for i in named("classify"))
        out["classify.calls"] = len(named("classify"))
        out["search.enumerate_s"] = sum(self_time(i) for i in enums)
        out["search.nodes"] = sum(attr(i, "nodes") for i in enums)
        out["search.pruned"] = sum(attr(i, "pruned") for i in enums)
        out["search.prune_ratio"] = ratio(out["search.pruned"], out["search.nodes"])
        out["search.nodes_per_s"] = ratio(out["search.nodes"], out["search.enumerate_s"])
        out["search.hits"] = sum(attr(i, "hits") for i in enums)
        out["search.leaf_classify_calls"] = len(leaves)
        out["search.leaf_classify_s"] = sum(dur[i] for i in leaves)
        out["search.hit_ratio"] = ratio(sum(attr(i, "hits") for i in classifying), len(leaves))
        out["search.translate_calls"] = sum(
            n for run, n in self.translate_calls.items() if run.startswith(prefix))
        out["search.dedup_s"] = sum(dur[i] for i in named("search.dedup"))
        out["search.census_families"] = sum(attr(i, "families") for i in censuses)
        out["search.census_families_per_s"] = ratio(
            out["search.census_families"], sum(self_time(i) for i in censuses))
        out["search.census_cross_checks"] = sum(attr(i, "cross_checked") for i in censuses)
        out["search.census_cross_check_s"] = sum(dur[i] for i in checks)
        out["simulate.play_s"] = sum(self_time(i) for i in plays)
        out["simulate.trials"] = sum(attr(i, "trials") for i in plays)
        out["simulate.trials_per_s"] = ratio(out["simulate.trials"], out["simulate.play_s"])
        out["simulate.profile_s"] = sum(dur[i] for i in profiles if under(i, "simulate.play"))
        out["files.read_s"] = sum(dur[i] for i in named("files.read"))
        out["files.write_s"] = sum(dur[i] for i in writes)
        out["files.bytes_written"] = sum(attr(i, "bytes") for i in writes)
        out["cli.self_s"] = sum(self_time(i) for i in named("cli"))
        out["constructions.build_s"] = sum(
            spans[i][2] - spans[i][1] for i, s in enumerate(spans)
            if s[0] == "constructions.build")
        out["trace.overhead"] = ratio(traced, untraced)
        return out

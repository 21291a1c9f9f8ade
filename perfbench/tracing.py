"""Spans around calls into limlaw's modules, installed from outside.

``install`` replaces each traced public function with a wrapper in every
``limlaw`` module namespace that holds it (``limitchain`` imports
``compile_sentence`` and ``evaluate``, ``cli`` imports ``analyze_limit``
and ``chain_to_json``), so calls made inside the package are seen too.
Spans are kept in memory as (name, start, end, parent, attrs) and written
out at the end of the run.  A call made while a span of the same name is
innermost (recursion such as ``segment_type_id``) gets no span of its own.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter

from limlaw import efgame

# (module, function, span name); a span name shared by several functions
# measures them as one layer
TARGETS = (
    ("cli", "main", "cli"),
    ("logic", "parse", "logic.parse"),
    ("logic", "translate_to_convex", "logic.translate"),
    ("logic", "evaluate", "logic.evaluate"),
    ("logic", "ensure_sentence", "logic.other"),
    ("logic", "format_formula", "logic.other"),
    ("structures", "as_relational", "structures.view"),
    ("structures", "structure_view", "structures.view"),
    ("stepauto", "compile_sentence", "stepauto.compile"),
    ("limitchain", "analyze_limit", "limitchain.analyze"),
    ("limitchain", "prepare_chain", "limitchain.prepare"),
    ("limitchain", "build_chain", "limitchain.class_chain"),
    ("limitchain", "build_sentence_chain", "limitchain.sentence_chain"),
    ("limitchain", "check_fully_aperiodic", "limitchain.aperiodic"),
    ("limitchain", "limiting_distribution", "limitchain.solve"),
    ("limitchain", "estimate_probability", "limitchain.estimate"),
    ("limitchain", "chain_to_json", "limitchain.export"),
    ("limitchain", "verify_chain_states", "limitchain.verify"),
    ("efgame", "reduce_representative", "efgame.segment"),
    ("efgame", "shape_type_id", "efgame.segment"),
    ("efgame", "fast_equiv_shapes", "efgame.segment"),
    ("efgame", "fast_equiv_convex", "efgame.segment"),
    ("efgame", "segment_type_id", "efgame.segment"),
)

#: per-layer metrics in the order they are reported, with their units
PER_LAYER = (
    ("logic.parse_ms", "ms"),
    ("logic.translate_ms", "ms"),
    ("logic.evaluate_ms", "ms"),
    ("logic.evaluate_calls", "count"),
    ("structures.view_ms", "ms"),
    ("stepauto.compile_ms", "ms"),
    ("stepauto.compile_calls", "count"),
    ("stepauto.automaton_states", "count"),
    ("limitchain.class_chain_ms", "ms"),
    ("limitchain.class_chain_states", "count"),
    ("limitchain.solve_self_ms", "ms"),
    ("limitchain.solve_calls", "count"),
    ("limitchain.aperiodic_ms", "ms"),
    ("limitchain.aperiodic_calls", "count"),
    ("limitchain.sentence_chain_self_ms", "ms"),
    ("limitchain.prepare_ms", "ms"),
    ("limitchain.walk_ms", "ms"),
    ("limitchain.walk_msteps_per_s", "Msteps/s"),
    ("efgame.segment_ms", "ms"),
    ("efgame.segment_types", "count"),
    ("efgame.game_ms", "ms"),
    ("efgame.game_nodes", "count"),
    ("efgame.game_nodes_per_s", "1/s"),
    ("cli.self_ms", "ms"),
)


def _result_attrs(name: str):
    """What a span records about its call, as f(args, kwargs, result)."""
    if name == "stepauto.compile":
        return lambda a, kw, r: {"states": r.n_states}
    if name == "limitchain.class_chain":
        return lambda a, kw, r: {"states": len(r)}
    if name == "limitchain.estimate":
        return lambda a, kw, r: {"method": kw.get("method", "walk"),
                                 "steps": r.samples * (a[2] - 1)}
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: wrapped calls, with or without a span of their own
        self.calls = 0

    def _open(self, name: str) -> int | None:
        self.calls += 1
        stack = self._stack
        if stack and self.spans[stack[-1]][0] == name:
            return None
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           stack[-1] if stack else -1, None])
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        attrs = _result_attrs(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            if idx is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if attrs is not None:
                self.spans[idx][4] = attrs(args, kwargs, result)
            return result
        return wrapper

    def wrap_game(self, fn):
        """``GameSolver.equiv``, recording the nodes the query searched."""
        @functools.wraps(fn)
        def equiv(solver, *args, **kwargs):
            idx = self._open("efgame.game")
            if idx is None:
                return fn(solver, *args, **kwargs)
            before = solver.nodes
            try:
                return fn(solver, *args, **kwargs)
            finally:
                self._close(idx)
                self.spans[idx][4] = {"nodes": solver.nodes - before}
        return equiv

    def install(self):
        """Wrap every target; returns a function that restores the originals."""
        modules = [m for name, m in sys.modules.items()
                   if name == "limlaw" or name.startswith("limlaw.")]
        undo = []
        for mod_name, fn_name, span in TARGETS:
            original = getattr(sys.modules[f"limlaw.{mod_name}"], fn_name)
            wrapper = self.wrap(span, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))
        equiv = efgame.GameSolver.equiv
        efgame.GameSolver.equiv = self.wrap_game(equiv)
        undo.append((efgame.GameSolver, "equiv", equiv))

        def restore() -> None:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
        return restore

    def dump(self, path, passes: list[tuple[int, int]]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "passes": passes, "spans": self.spans}, fh)
            fh.write("\n")


def layer_values(spans: list[list], lo: int, hi: int,
                 segment_types: int) -> dict[str, float]:
    """Per-layer values of one pass, from the spans with index in [lo, hi)."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    child: dict[int, float] = {}
    for idx in range(lo, hi):
        name, start, end, parent, _ = spans[idx]
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + dur

    def self_ms(name: str) -> float:
        return 1e3 * sum(spans[i][2] - spans[i][1] - child.get(i, 0.0)
                         for i in range(lo, hi) if spans[i][0] == name)

    def attr_sum(name: str, key: str) -> int:
        return sum(spans[i][4][key] for i in range(lo, hi)
                   if spans[i][0] == name and spans[i][4] is not None)

    walk_s, walk_steps = 0.0, 0
    for i in range(lo, hi):
        name, start, end, _, attrs = spans[i]
        if name == "limitchain.estimate" and attrs and attrs["method"] == "walk":
            walk_s += end - start - child.get(i, 0.0)
            walk_steps += attrs["steps"]
    game_nodes = attr_sum("efgame.game", "nodes")
    game_s = total.get("efgame.game", 0.0)

    def ms(name: str) -> float:
        return 1e3 * total.get(name, 0.0)

    return {
        "logic.parse_ms": ms("logic.parse"),
        "logic.translate_ms": ms("logic.translate"),
        "logic.evaluate_ms": ms("logic.evaluate"),
        "logic.evaluate_calls": calls.get("logic.evaluate", 0),
        "structures.view_ms": ms("structures.view"),
        "stepauto.compile_ms": ms("stepauto.compile"),
        "stepauto.compile_calls": calls.get("stepauto.compile", 0),
        "stepauto.automaton_states": attr_sum("stepauto.compile", "states"),
        "limitchain.class_chain_ms": ms("limitchain.class_chain"),
        "limitchain.class_chain_states": attr_sum("limitchain.class_chain", "states"),
        "limitchain.solve_self_ms": self_ms("limitchain.solve"),
        "limitchain.solve_calls": calls.get("limitchain.solve", 0),
        "limitchain.aperiodic_ms": ms("limitchain.aperiodic"),
        "limitchain.aperiodic_calls": calls.get("limitchain.aperiodic", 0),
        "limitchain.sentence_chain_self_ms": self_ms("limitchain.sentence_chain"),
        "limitchain.prepare_ms": ms("limitchain.prepare"),
        "limitchain.walk_ms": 1e3 * walk_s,
        "limitchain.walk_msteps_per_s": walk_steps / walk_s / 1e6 if walk_s else 0.0,
        "efgame.segment_ms": ms("efgame.segment"),
        "efgame.segment_types": segment_types,
        "efgame.game_ms": 1e3 * game_s,
        "efgame.game_nodes": game_nodes,
        "efgame.game_nodes_per_s": game_nodes / game_s if game_s else 0.0,
        "cli.self_ms": self_ms("cli"),
    }


def median_values(per_pass: list[dict[str, float]]) -> dict[str, float]:
    # median_low: a value some pass measured, so counts stay whole
    return {name: statistics.median_low(p[name] for p in per_pass)
            for name, _ in PER_LAYER}

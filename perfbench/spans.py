"""Spans around the calls into each churing module, and the per-module
metrics derived from them.

The wrappers are installed from the benchmark's side, on every module
attribute that refers to a wrapped function (``churing.cli.evaluate`` as well
as ``churing.prf.evaluate``), so calls that pipelines make between modules
are seen too.  Only public entry points are wrapped, never a per-step
function.  Spans are kept in memory and summarized at the end.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from churing.errors import Fuel
from jobs import beta_contractions, normalize_spends, prf_nodes, term_nodes

MODULES = ("tm", "transform", "prf", "lam", "prf_to_tm", "tm_to_prf", "prf_to_lam",
           "lam_to_tm", "formats", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def _tm_info(args, kw, out):
    cells = sum(len(t.cells) for t in out.final.tapes)
    return {"steps": out.final.steps_taken, "cells": cells, "machine": args[0].name}


def _rules_info(args, kw, m):
    return {"rules": sum(len(ts) for ts in m.delta.values())}


def _prf_to_tm_info(args, kw, res):
    m, _ = res
    return {"rules": sum(len(ts) for ts in m.delta.values()), "tapes": m.tapes}


def _nodes_info(args, kw, t):
    return {"nodes": term_nodes(t)}


def _prf_nodes_info(args, kw, e):
    return {"nodes": prf_nodes(e)}


def _normalize_info(args, kw, res):
    fuel = kw.get("fuel", args[1] if len(args) > 1 else 10_000)
    info = {"normal": res.normal, "fuel": fuel, "term": args[0]}
    if res.normal:
        info["nf_nodes"] = term_nodes(res.term)
    return info


def _parse_info(args, kw, res):
    return {"bytes": len(args[-1])}


def _print_info(args, kw, text):
    return {"bytes": len(text)}


def _equiv_info(args, kw, report):
    cells = [v for row in report.results.values() for v in row.values()]
    return {"cells": len(cells), "decided": sum(v is not None for v in cells)}


# (module, function, span name, info from (args, kwargs, result))
ENTRY_POINTS = [
    ("tm", "run", "tm.run", _tm_info),
    ("transform", "nd_run", "transform.nd_run", None),
    ("transform", "to_single_tape", "transform.to_single_tape", _rules_info),
    ("transform", "dfa_accepts", "transform.dfa_accepts", None),
    ("prf", "evaluate", "prf.evaluate", None),  # fuel is read by the wrapper
    ("lam", "normalize", "lam.normalize", _normalize_info),
    ("lam", "church_decode", "lam.church_decode", None),
    ("lam", "beta_eq", "lam.beta_eq", None),
    ("prf_to_tm", "compile_prf_to_tm", "prf_to_tm.compile", _prf_to_tm_info),
    ("tm_to_prf", "compile_tm_to_prf", "tm_to_prf.compile", _prf_nodes_info),
    ("prf_to_lam", "compile_prf_to_lambda", "prf_to_lam.compile", _nodes_info),
    ("lam_to_tm", "build_machine", "lam_to_tm.build_machine", _rules_info),
    ("lam_to_tm", "reduce_on_tm", "lam_to_tm.reduce_on_tm", None),
    ("formats", "parse", "formats.parse", _parse_info),
    ("formats", "parse_tm", "formats.parse", _parse_info),
    ("formats", "parse_prf", "formats.parse", _parse_info),
    ("formats", "parse_lam", "formats.parse", _parse_info),
    ("formats", "print_source", "formats.print", _print_info),
    ("formats", "print_tm", "formats.print", _print_info),
    ("formats", "print_prf", "formats.print", _print_info),
    ("formats", "print_lam", "formats.print", _print_info),
    ("cli", "cli", "cli.cli", None),
    ("cli", "equiv_grid", "cli.equiv_grid", _equiv_info),
]


class Tracer:
    """Records spans while installed and not paused."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self.paused = False

    def _open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), parent=self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, info: Optional[Callable]) -> Callable:
        tracer = self

        def traced(*args, **kw):
            if tracer.paused:
                return fn(*args, **kw)
            span = tracer._open(name)
            try:
                result = fn(*args, **kw)
            finally:
                tracer._close(span)
            if info is not None:
                span.info = info(args, kw, result)
            return result

        def traced_evaluate(e, args, fuel):
            if tracer.paused:
                return fn(e, args, fuel)
            budget = Fuel(fuel) if isinstance(fuel, int) else fuel
            before = budget.remaining
            span = tracer._open(name)
            try:
                return fn(e, args, budget)
            finally:
                tracer._close(span)
                span.info = {"evals": before - max(budget.remaining, 0)}

        return traced_evaluate if name == "prf.evaluate" else traced

    def install(self, extra: Dict[tuple, str] = ()) -> None:
        """Wrap every entry point on every churing module that names it.

        ``extra`` maps (module object, attribute) to a span name, for the
        benchmark's own functions that start processes."""
        for mod_name, fn_name, span_name, info in ENTRY_POINTS:
            orig = getattr(sys.modules[f"churing.{mod_name}"], fn_name)
            wrapped = self.wrap(span_name, orig, info)
            for name, mod in list(sys.modules.items()):
                if not name.startswith("churing.") or mod is None:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
        for (mod, attr), span_name in dict(extra).items():
            orig = getattr(mod, attr)
            self._patches.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(span_name, orig, None))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()


# ---------------------------------------------------------------------------
# Contraction counts from outside


def contractions(term, fuel: int) -> Optional[int]:
    """Contractions normalize spent on a term it brought to normal form.

    The count comes from the reference reducer, beta_step; normalize must
    agree: normal with that much fuel and not with one less.  None when
    they disagree."""
    n = beta_contractions(term, fuel)
    return n if n is not None and normalize_spends(term, n) else None


# ---------------------------------------------------------------------------
# Per-module metrics


def _outermost(spans: List[Span], name: str) -> List[Span]:
    """Spans of this name that are not inside another span of the same name."""
    out = []
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != name:
            p = spans[p].parent
        if p < 0:
            out.append(s)
    return out


def _ancestor(spans: List[Span], s: Span, name: str) -> bool:
    p = s.parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def per_module(spans: List[Span], passes: int, lam_contractions: int,
               proc_ms: List[float]) -> Dict[str, float]:
    """Per-pass averages of the traced passes' spans; lam_contractions is
    already per pass."""
    def busy(name):
        return sum(s.dur for s in _outermost(spans, name)) / passes

    def calls(name):
        return sum(1 for s in spans if s.name == name) / passes

    def total(name, key):
        return sum(s.info.get(key, 0) for s in spans if s.name == name) / passes

    def rate(work, secs):
        return work / secs if secs > 0 else 0.0

    m: Dict[str, float] = {}
    m["tm.run.calls"] = calls("tm.run")
    m["tm.run.busy_s"] = busy("tm.run")
    m["tm.steps"] = total("tm.run", "steps")
    m["tm.steps_per_s"] = rate(m["tm.steps"], m["tm.run.busy_s"])
    m["tm.peak_cells"] = max((s.info.get("cells", 0) for s in spans if s.name == "tm.run"),
                             default=0)
    m["transform.nd_run.calls"] = calls("transform.nd_run")
    m["transform.nd_run.busy_s"] = busy("transform.nd_run")
    m["transform.to_single_tape.busy_s"] = busy("transform.to_single_tape")
    m["transform.to_single_tape.rules"] = total("transform.to_single_tape", "rules")
    m["prf.evaluate.calls"] = calls("prf.evaluate")
    m["prf.evaluate.busy_s"] = busy("prf.evaluate")
    m["prf.evals"] = total("prf.evaluate", "evals")
    m["prf.evals_per_s"] = rate(m["prf.evals"], m["prf.evaluate.busy_s"])
    m["lam.normalize.calls"] = calls("lam.normalize")
    m["lam.normalize.busy_s"] = busy("lam.normalize")
    m["lam.contractions"] = lam_contractions
    m["lam.contractions_per_s"] = rate(m["lam.contractions"], m["lam.normalize.busy_s"])
    m["lam.nf_nodes"] = total("lam.normalize", "nf_nodes")
    m["lam.church_decode.busy_s"] = busy("lam.church_decode")
    m["prf_to_tm.busy_s"] = busy("prf_to_tm.compile")
    m["prf_to_tm.rules"] = total("prf_to_tm.compile", "rules")
    m["prf_to_tm.tapes"] = total("prf_to_tm.compile", "tapes")
    m["tm_to_prf.busy_s"] = busy("tm_to_prf.compile")
    m["tm_to_prf.nodes"] = total("tm_to_prf.compile", "nodes")
    m["prf_to_lam.busy_s"] = busy("prf_to_lam.compile")
    m["prf_to_lam.nodes"] = total("prf_to_lam.compile", "nodes")
    m["lam_to_tm.build_machine.busy_s"] = busy("lam_to_tm.build_machine")
    m["lam_to_tm.reduce_on_tm.busy_s"] = busy("lam_to_tm.reduce_on_tm")
    in_reduce = [s for s in spans
                 if s.name == "tm.run" and _ancestor(spans, s, "lam_to_tm.reduce_on_tm")]
    m["lam_to_tm.rounds"] = sum(s.info.get("machine") == "NF" for s in in_reduce) / passes
    m["lam_to_tm.tm_steps"] = sum(s.info.get("steps", 0) for s in in_reduce) / passes
    m["formats.parse.busy_s"] = busy("formats.parse")
    m["formats.print.busy_s"] = busy("formats.print")
    fmt_bytes = sum(s.info.get("bytes", 0) for s in _outermost(spans, "formats.parse")) + sum(
        s.info.get("bytes", 0) for s in _outermost(spans, "formats.print"))
    m["formats.bytes"] = fmt_bytes / passes
    m["formats.bytes_per_s"] = rate(m["formats.bytes"],
                                    m["formats.parse.busy_s"] + m["formats.print.busy_s"])
    m["cli.calls"] = calls("cli.cli")
    m["cli.busy_s"] = busy("cli.cli")
    m["cli.proc_ms"] = statistics.median(proc_ms) if proc_ms else 0.0
    m["cli.equiv_grid.busy_s"] = busy("cli.equiv_grid")
    cells = total("cli.equiv_grid", "cells")
    m["cli.equiv_grid.cells"] = cells
    m["cli.equiv_grid.decided_ratio"] = rate(total("cli.equiv_grid", "decided"), cells)
    for mod, secs in self_times(spans).items():
        m[f"{mod}.self_s"] = secs / passes
    return m


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Each module's span time minus the time of its child spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.dur
    out = dict.fromkeys(MODULES, 0.0)
    for s, c in zip(spans, child):
        out[s.name.split(".")[0]] += s.dur - c
    return out

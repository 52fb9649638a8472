"""Spans around calls into mpfuzz's layers, recorded from outside the program.

Each traced function is replaced, while tracing is installed, by a wrapper
in every ``mpfuzz`` module namespace that holds it (functions imported
with ``from ... import`` are looked up there) and methods on their class.
Spans are aggregated in memory by (parent span, span) and written out when
the run ends; a span's self time is its duration minus its child spans'.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (span name, module, attribute or Class.method, result hook name)
SPANS = (
    ("mempool.clone", "mpfuzz.mempool", "MempoolState.clone", None),
    ("mempool.admit_mut", "mpfuzz.mempool", "MempoolState.admit_mut",
     "admitted"),
    ("mempool.fill_normal", "mpfuzz.mempool", "fill_normal", None),
    ("symbolic.symbolize_state", "mpfuzz.symbolic", "symbolize_state", None),
    ("symbolic.enumerate_mutations", "mpfuzz.symbolic",
     "enumerate_mutations", "candidates"),
    ("symbolic.instantiate", "mpfuzz.symbolic", "instantiate", None),
    ("symbolic.execute_input", "mpfuzz.symbolic", "execute_input", None),
    ("oracle.check_eviction", "mpfuzz.oracle", "check_eviction", "triggered"),
    ("oracle.check_locking", "mpfuzz.oracle", "check_locking", None),
    ("fuzzer.run_fuzzer", "mpfuzz.fuzzer", "run_fuzzer", "mutations"),
    ("fuzzer.select", "mpfuzz.fuzzer", "Corpus.select", None),
    ("fuzzer.corpus_add", "mpfuzz.fuzzer", "Corpus.add", None),
    ("fuzzer.probe_declines", "mpfuzz.fuzzer", "_probe_declines", None),
    ("fuzzer.st_promising", "mpfuzz.fuzzer", "st_promising", None),
    ("exploitkit.generate_xt", "mpfuzz.exploitkit", "generate_xt", None),
    ("exploitkit.run_pattern", "mpfuzz.exploitkit", "run_pattern", None),
    ("baselines.run_baseline", "mpfuzz.baselines", "run_baseline", None),
)

# Spans reported with calls, total and self time; fuzzer.corpus_add only
# counts the seeds kept.
TIMED_SPANS = tuple(s[0] for s in SPANS if s[0] != "fuzzer.corpus_add")

HOOKS: Dict[str, Callable[[object], int]] = {
    "admitted": lambda out: int(out.admitted),
    "candidates": len,
    "triggered": lambda verdict: int(verdict.triggered),
    "mutations": lambda res: res.mutations,
}


class Tracer:
    def __init__(self):
        # (parent, name) -> [calls, seconds, self seconds]
        self.edges: Dict[Tuple[Optional[str], str], List[float]] = {}
        self.counters: Dict[str, int] = {}
        self.missing: List[str] = []
        self._stack: List[List] = []
        self._patches: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, hook: Optional[str]):
        stack = self._stack
        edges = self.edges
        counters = self.counters
        count = HOOKS[hook] if hook else None
        counter = f"{name}.{hook}"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                key = (parent[0] if parent else None, name)
                rec = edges.get(key)
                if rec is None:
                    rec = edges[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
            if count is not None:
                counters[counter] = counters.get(counter, 0) + count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function where mpfuzz looks it up."""
        self.missing = []
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "mpfuzz" or
                                         n.startswith("mpfuzz."))]
        for name, modname, attr, hook in SPANS:
            owner = sys.modules.get(modname)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            fn = owner.__dict__.get(meth) if owner is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, fn, hook)
            if cls_name:
                self._patch(owner, meth, wrapped)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches = []

    def totals(self) -> Dict[str, List[float]]:
        """name -> [calls, seconds, self seconds], summed over parents."""
        out: Dict[str, List[float]] = {}
        for (_, name), (calls, secs, self_s) in self.edges.items():
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += secs
            rec[2] += self_s
        return out

    def dump(self) -> dict:
        return {
            "edges": [{"parent": p, "span": n, "calls": c, "s": s,
                       "self_s": ss}
                      for (p, n), (c, s, ss) in sorted(
                          self.edges.items(),
                          key=lambda kv: (kv[0][0] or "", kv[0][1]))],
            "counters": dict(sorted(self.counters.items())),
            "missing": self.missing,
        }

"""Symbolized stateful fuzzing loop.

Explores the symbol-level input space of a deterministic pool: seeds are
(input, symbolized state) pairs, mutation appends one feasible symbol,
feedback is new-state coverage gated by a promisingness test, and seed
selection ranks by b/opcost energy.  Two sequential passes cover the two
damage modes: an eviction pass starting from a benign-filled pool and a
locking pass starting from an empty one with benign probes appended to
every candidate timeline.

Selection is a lazy min-heap on (opcost, insertion order).  This picks
the seed of highest energy, earliest added on a tie, as a scan of
``Seed.energy()`` would: a seed's opcost never changes, the least opcost
is the greatest energy (opcost 0 has energy inf and sorts first), and a
seed only leaves the ranking once its candidates, tried strictly in
order, run out.  A seed never regains an untried candidate, so exhausted
seeds are dropped only when they reach the top.  Each seed carries the
concrete transactions that built its state, so an exploit's transactions
are its seed's plus the last one, without re-executing its input.

A symbolized state counts as covered once feedback has judged it: it was
reached by an admitted mutation and the promisingness gate either kept it
as a seed or rejected it.  A covered state is never judged again, so a
rejected state is not re-probed or admitted later from another parent,
and ``states_covered`` counts judged states, kept or not.
"""

from __future__ import annotations

import heapq
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .exploitkit import Exploit, exploit_key
from .mempool import MempoolPolicy, MempoolState, fill_normal, new_pool
# Also bound under this name, which the benchmark's span tracer looks up.
from .mempool import probe_declines as _probe_declines
from .oracle import (OracleConfig, check_eviction, check_locking,
                     evicted_all)
from .symbolic import (InstantiationContext, SymbolizedState, SymbolizedTx,
                       InfeasibleSymbol, cost, enumerate_mutations,
                       execute_input, instantiate, opcost, serialize_input,
                       symbolize_state)
from .txmodel import Transaction


@dataclass
class Seed:
    input: Tuple[SymbolizedTx, ...]
    sym_state: SymbolizedState
    concrete: MempoolState
    ctx: InstantiationContext
    order: int
    candidates: Tuple[SymbolizedTx, ...] = ()
    next_candidate: int = 0
    txs: Tuple[Transaction, ...] = ()
    decline_probes: int = 0

    def exhausted(self) -> bool:
        return self.next_candidate >= len(self.candidates)

    def energy(self):
        """Scheduling energy b/opcost (b = 1), 0 once exhausted: the ranking
        that ``Corpus.select`` reproduces with its heap."""
        if self.exhausted():
            return Fraction(0)
        oc = opcost(self.sym_state)
        if oc == 0:
            return math.inf
        return Fraction(1, oc)


class Corpus:
    def __init__(self):
        self.covered: Set[str] = set()
        # (opcost, order, seed) of every seed added with a candidate left;
        # exhausted seeds are popped when they reach the top.
        self._heap: List[Tuple[int, int, Seed]] = []
        self._next_order = 0

    def add(self, seed: Seed) -> None:
        key = seed.sym_state.key()
        if key in self.covered:
            raise ValueError(f"state already covered: {key}")
        self.covered.add(key)
        seed.order = self._next_order
        self._next_order += 1
        if not seed.exhausted():
            heapq.heappush(self._heap,
                           (opcost(seed.sym_state), seed.order, seed))

    def select(self) -> Optional[Seed]:
        """The seed of highest energy, earliest added on a tie; None when
        every seed is exhausted."""
        heap = self._heap
        while heap and heap[0][2].exhausted():
            heapq.heappop(heap)
        return heap[0][2] if heap else None


@dataclass
class FuzzResult:
    exploits: List[Exploit]
    mutations: int
    states_covered: int
    mode_stats: Dict[str, dict] = field(default_factory=dict)
    first_exploit_mutations: Optional[int] = None


def st_promising(new_sym: SymbolizedState, old_sym: SymbolizedState,
                 new_declines: int, old_declines: int) -> bool:
    """A state is worth keeping when it hurts benign service or gets
    cheaper: fewer benign residents, more declined benign probes, lower
    cost, or lower optimistic cost."""
    if new_sym.count("N") < old_sym.count("N"):
        return True
    if new_declines > old_declines:
        return True
    if cost(new_sym) < cost(old_sym):
        return True
    if opcost(new_sym) < opcost(old_sym):
        return True
    return False


def _audit_reexec(policy: MempoolPolicy, seed_input, fill_count: int,
                  cached: MempoolState,
                  cached_txs: Tuple[Transaction, ...]) -> None:
    state, _, txs, _ = execute_input(policy, seed_input, fill_count)
    if state.canonical() != cached.canonical():
        raise AssertionError("cached concrete state diverged from "
                             "re-execution")
    if tuple(txs) != cached_txs:
        raise AssertionError("carried transactions diverged from "
                             "re-execution")


def run_fuzzer(policy: MempoolPolicy,
               cfg: Optional[OracleConfig] = None,
               budget_mutations: int = 100_000,
               budget_seconds: float = 300.0,
               rng_seed: int = 0,
               promising: bool = True,
               modes: Sequence[str] = ("eviction", "locking"),
               log_stream=None,
               reexec_audit: bool = False,
               stop_on_first: bool = False) -> FuzzResult:
    """Run the full fuzzing campaign over the requested modes.

    Deterministic for fixed (policy, cfg, budgets).  The search makes no
    random choice, so `rng_seed` is never read: runs that differ only in
    it are identical.
    """
    cfg = cfg or OracleConfig()
    start = time.monotonic()
    total_mutations = 0
    exploits: List[Exploit] = []
    emitted: Set[Tuple[str, str]] = set()
    mode_stats: Dict[str, dict] = {}
    first_at: Optional[int] = None
    for mode in modes:
        remaining = budget_mutations - total_mutations
        if remaining <= 0:
            break
        used, covered, mode_first = _run_mode(
            mode, policy, cfg, remaining,
            budget_seconds - (time.monotonic() - start),
            promising, exploits, emitted, log_stream, reexec_audit,
            stop_on_first)
        if mode_first is not None and first_at is None:
            first_at = total_mutations + mode_first
        total_mutations += used
        mode_stats[mode] = {"mutations": used, "states_covered": covered}
        if stop_on_first and first_at is not None:
            break
    return FuzzResult(exploits=exploits, mutations=total_mutations,
                      states_covered=sum(s["states_covered"]
                                         for s in mode_stats.values()),
                      mode_stats=mode_stats,
                      first_exploit_mutations=first_at)


def _log(stream, record: dict) -> None:
    if stream is not None:
        stream.write(json.dumps(record, sort_keys=True) + "\n")


def _run_mode(mode: str, policy: MempoolPolicy, cfg: OracleConfig,
              budget_mutations: int, budget_seconds: float,
              promising: bool, exploits: List[Exploit],
              emitted: Set[Tuple[str, str]], log_stream,
              reexec_audit: bool,
              stop_on_first: bool = False
              ) -> Tuple[int, int, Optional[int]]:
    m = policy.capacity
    fill_count = m if mode == "eviction" else 0
    root_state = new_pool(policy)
    st0 = fill_normal(root_state, fill_count)
    root_ctx = InstantiationContext(capacity=m, benign_next=fill_count + 1)
    corpus = Corpus()
    _, root_declined = _probe_declines(root_state, m)
    corpus.add(Seed(input=(), sym_state=symbolize_state(root_state),
                    concrete=root_state, ctx=root_ctx, order=0,
                    candidates=tuple(enumerate_mutations(root_state,
                                                         root_ctx)),
                    decline_probes=len(root_declined)))

    mutations = 0
    first_at: Optional[int] = None
    deadline = time.monotonic() + budget_seconds
    while mutations < budget_mutations and time.monotonic() < deadline:
        if stop_on_first and first_at is not None:
            break
        seed = corpus.select()
        if seed is None:
            break
        while not seed.exhausted():
            if mutations >= budget_mutations or \
                    time.monotonic() >= deadline:
                break
            cand = seed.candidates[seed.next_candidate]
            seed.next_candidate += 1
            mutations += 1
            state = seed.concrete.clone()
            ctx = seed.ctx.copy()
            try:
                tx = instantiate(cand, state, ctx)
            except InfeasibleSymbol:
                _log(log_stream, {"mode": mode,
                                  "seed": seed.sym_state.key(),
                                  "candidate": cand.serialize(),
                                  "outcome": "Infeasible",
                                  "feedback": False})
                continue
            outcome = state.admit_mut(tx)
            new_input = seed.input + (cand,)
            new_txs = seed.txs + (tx,)
            new_sym = symbolize_state(state)
            if reexec_audit:
                _audit_reexec(policy, new_input, fill_count, state, new_txs)

            declined_probes: Optional[List[Transaction]] = None
            if mode == "eviction":
                verdict = (check_eviction(st0, state, cfg)
                           if evicted_all(st0, state) else None)
            else:
                probe_state, declined_probes = _probe_declines(state, m)
                verdict = check_locking(probe_state, declined_probes, cfg)
            if verdict is not None and verdict.triggered:
                if first_at is None:
                    first_at = mutations
                key = exploit_key(verdict.kind, new_input)
                if key not in emitted:
                    emitted.add(key)
                    exploits.append(Exploit(
                        kind=verdict.kind, pattern=None, mut_config=policy,
                        symbol_sequence=new_input,
                        concrete_txs=list(new_txs), verdict=verdict,
                        end_state=new_sym.key()))
                _log(log_stream, {"mode": mode,
                                  "seed": seed.sym_state.key(),
                                  "candidate": cand.serialize(),
                                  "outcome": "Exploit",
                                  "state": new_sym.key(),
                                  "input": serialize_input(new_input)})
                if stop_on_first:
                    break
                continue

            fed_back = False
            if outcome.admitted and new_sym.key() not in corpus.covered:
                if declined_probes is None:
                    _, declined_probes = _probe_declines(state, m)
                ok = True
                if promising:
                    ok = st_promising(new_sym, seed.sym_state,
                                      len(declined_probes),
                                      seed.decline_probes)
                if ok:
                    corpus.add(Seed(
                        input=new_input, sym_state=new_sym, concrete=state,
                        ctx=ctx, order=0,
                        candidates=tuple(enumerate_mutations(state, ctx)),
                        txs=new_txs, decline_probes=len(declined_probes)))
                    fed_back = True
                else:
                    corpus.covered.add(new_sym.key())
            _log(log_stream, {"mode": mode, "seed": seed.sym_state.key(),
                              "candidate": cand.serialize(),
                              "outcome": outcome.kind,
                              "state": new_sym.key(),
                              "feedback": fed_back})
    return mutations, len(corpus.covered), first_at

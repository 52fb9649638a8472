"""Symbolized stateful fuzzing loop.

Explores the symbol-level input space of a deterministic pool: seeds are
(input, symbolized state) pairs, mutation appends one feasible symbol,
feedback is new-state coverage gated by a promisingness test, and seed
selection ranks by b/opcost energy.  Two sequential passes cover the two
damage modes: an eviction pass starting from a benign-filled pool and a
locking pass starting from an empty one with benign probes appended to
every candidate timeline.

Selection pops a min-heap on (opcost, insertion order): the seed of
highest energy, earliest added on a tie, as a scan of the energies
would pick (``energy`` in ``tests/test_fuzzer.py``).  The least opcost
is the greatest energy, opcost 0 sorts first as energy inf, and a seed
with no candidates has energy 0 and is never pushed.  A popped seed is
never wanted again: all its candidates run before the next selection,
and each early exit (the mutation budget, `budget_seconds`,
`stop_on_first`) ends the mode.  A seed holds no pool: it carries the
transactions that built its state from the mode's root, so an exploit's
transactions are its seed's plus the last one, without re-executing its
input.

A symbolized state counts as covered once feedback has judged it: it was
reached by an admitted mutation and the promisingness gate either kept it
as a seed or rejected it.  A covered state is never judged again, so a
rejected state is not re-probed or admitted later from another parent,
and ``states_covered`` counts judged states, kept or not.

A mode keeps one pool, its root.  A selection walks it from the path it
stands on to the seed's (``mempool.walk``, whose docstring says why the
replay is exact), and each mutation is admitted there under a mark
(``MempoolState.mark``), judged and rolled back; no pool is copied.  A
kept seed's candidates are enumerated on the mutated pool before the
rollback.  The pool journals only its entry inserts, removes and flips;
the mark copies the counters, the victim heaps and the account keys, and
the rollback drops the cached chain state of each sender whose entries
it restores.  Two kinds of decline and repeated transactions are not
judged again, and the three shortcuts leave every output as full judging
would:

- A mutation the pool declines leaves the pool's entries and world as
  they were, so its symbolized state is its seed's.  That state is
  covered, and it was judged untriggered when it was kept: a triggering
  state is never kept, and a root cannot trigger (the eviction root
  still holds every initial resident; the locking root is empty, so its
  probed pool holds only benign senders or nothing).  The oracles and
  probes read only entries and world, so they would judge it the same
  again.  The mutation is logged with its seed's state and no feedback;
  it is not symbolized, judged or probed.
- In a benign probe, once a fresh arrival is declined the later fresh
  ones are declined alike without admission (``fill_normal``).
- Within one seed, a candidate whose transaction equals an earlier
  candidate's (P_1..P_r all repeat P_0's) is neither admitted nor
  judged; it gets the earlier candidate's result.  Every candidate runs
  against the seed's pool rolled back to its mark and the seed's
  context, so the admission, the pool, the key, the fee sum and the
  verdict are the earlier one's.  A judged key is covered from then on,
  so the repeat is logged with the same outcome and key and no
  feedback.  A declined repeat is logged as declined with the seed's
  key, and a triggering one triggers again: it is emitted under its own
  input, whose ``exploit_key`` differs.  Under ``reexec_audit`` each
  repeat is judged in full as well and must equal its replayed result.

Exploration is seed-scoped.  A selected seed's candidates all run, in
order, against its unchanged pool and context.  Each carries the
transaction ``enumerate_mutations`` built for it from that pool and
context when the seed was made, as ``instantiate`` would build it, so
no candidate is concretized again.  When a seed is selected its pool is
summarized once per sender (``PoolSummary``).  The summaries and the
replayed results are not kept on the seed; they are dropped when the
seed's loop ends.  Each admitted mutation is then judged from the
summaries, and each step equals the whole-pool one:

- Only the senders named in the undo log since the mutation's mark
  (``MempoolState.touched_since``), those with an entry inserted,
  removed or flipped, are summarized again.  A summary reads only its
  sender's entries and world account; every entry change is journaled
  under a mark, and the world does not change under one
  (``build_block`` refuses to run there).
- The ``SymbolizedState`` is built once per admitted mutation from the
  summaries' slot counts and symbol groups (``PoolSummary.state``): its
  key decides coverage, and the gate and a new seed read its letter
  counts and its parents' summed price.
- In eviction mode the verdict is built cost first: the summed
  chargeable fees are compared with epsilon of the initial residents'
  fees, then ``evicted_all`` is asked, and ``check_eviction`` runs only
  when both say it triggers.  The fee sum is ``chargeable_fees``, so
  the two tests are the verdict's own, and ``check_eviction`` stays the
  one place that builds a verdict.
- In locking mode the verdict is built cost first too: the benign probe
  and ``check_locking`` run only where ``oracle.could_lock`` holds for
  the mutated pool and its summed chargeable fees.  That asks for a
  non-empty pool with no benign sender whose per-slot chargeable fee
  stays under lambda of a benign arrival's fee; where it fails the
  probed verdict cannot trigger (its docstring says why), so there is
  none.  As in eviction mode, a state with no verdict is probed for its
  decline count only when its key is not yet covered.
"""

from __future__ import annotations

import heapq
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .exploitkit import Exploit, exploit_key
from .mempool import (AdmissionOutcome, Mark, MempoolPolicy, MempoolState,
                      fill_normal, new_pool, walk)
# Also bound under this name, which the benchmark's span tracer looks up.
from .mempool import probe_declines as _probe_declines
from .oracle import (OracleConfig, chargeable_fees, check_eviction,
                     check_locking, could_lock, evicted_all, total_fees)
from .symbolic import (InstantiationContext, PoolSummary, SymbolizedState,
                       SymbolizedTx, cost, enumerate_mutations,
                       execute_input, opcost, serialize_input,
                       summarize_sender, symbolize_state)
from .txmodel import Transaction

MODES = ("eviction", "locking")


@dataclass
class Seed:
    input: Tuple[SymbolizedTx, ...]
    sym_state: SymbolizedState
    ctx: InstantiationContext
    # Each candidate with the transaction it concretizes to.
    candidates: Tuple[Tuple[SymbolizedTx, Transaction], ...] = ()
    txs: Tuple[Transaction, ...] = ()
    decline_probes: int = 0


class Corpus:
    def __init__(self):
        self.covered: Set[str] = set()
        # (opcost, insertion counter, seed) of each unselected seed.
        self._heap: List[Tuple[int, int, Seed]] = []
        self._added = 0

    def add(self, seed: Seed) -> None:
        key = seed.sym_state.key
        if key in self.covered:
            raise ValueError(f"state already covered: {key}")
        self.covered.add(key)
        if seed.candidates:
            heapq.heappush(self._heap,
                           (opcost(seed.sym_state), self._added, seed))
            self._added += 1

    def select(self) -> Optional[Seed]:
        """Take the seed of highest energy, earliest added on a tie, out
        of the corpus; None when no seed with candidates is left."""
        return heapq.heappop(self._heap)[2] if self._heap else None


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
                  cached: MempoolState, cached_txs: Tuple[Transaction, ...],
                  cached_outcome: AdmissionOutcome, cached_key: str,
                  cached_fees: int) -> None:
    """Re-execute `seed_input` and check what the search carried for it:
    the concrete pool, the transactions, the last admission's outcome,
    and the state key and chargeable fees it took from the seed's
    summaries."""
    state, _, txs, outcomes = execute_input(policy, seed_input, fill_count)
    if state.canonical() != cached.canonical():
        raise AssertionError("cached concrete state diverged from "
                             "re-execution")
    if tuple(txs) != cached_txs:
        raise AssertionError("carried transactions diverged from "
                             "re-execution")
    if outcomes[-1] != cached_outcome:
        raise AssertionError("admission outcome diverged from "
                             "re-execution")
    if symbolize_state(state).key != cached_key:
        raise AssertionError("summarized state key diverged from "
                             "re-execution")
    if chargeable_fees(state) != cached_fees:
        raise AssertionError("summarized chargeable fees diverged from "
                             "re-execution")


def _audit_locking(pool: MempoolState, m: int, judge_locking,
                   verdict) -> None:
    """Check the locking gate: the plain probe and verdict on `pool`
    trigger exactly where the search's `verdict` does."""
    _, ref = _probe_declines(pool, m, judge_locking)
    if ref.triggered != (verdict is not None and verdict.triggered):
        raise AssertionError("locking gate diverged from the plain probe "
                             "and verdict")


def run_fuzzer(policy: MempoolPolicy,
               cfg: Optional[OracleConfig] = None,
               budget_mutations: int = 100_000,
               budget_seconds: float = 300.0,
               rng_seed: int = 0,
               promising: bool = True,
               modes: Sequence[str] = MODES,
               log_stream=None,
               reexec_audit: bool = False,
               stop_on_first: bool = False) -> FuzzResult:
    """Run the full fuzzing campaign over the requested modes.

    Deterministic for fixed (policy, cfg, budgets).  The search makes no
    random choice, so `rng_seed` is never read: runs that differ only in
    it are identical.  A mode that stops on `budget_seconds` is the one
    exception, and its `mode_stats` entry says so.  A mode outside
    `MODES`, or one asked for twice, raises ValueError.
    """
    for i, mode in enumerate(modes):
        if mode not in MODES:
            raise ValueError(f"unknown fuzzing mode {mode!r}; the modes "
                             f"are {', '.join(MODES)}")
        if mode in modes[:i]:
            raise ValueError(f"fuzzing mode {mode!r} asked for twice")
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
        stats, mode_first = _run_mode(
            mode, policy, cfg, remaining,
            budget_seconds - (time.monotonic() - start),
            promising, exploits, emitted, log_stream, reexec_audit,
            stop_on_first)
        if mode_first is not None and first_at is None:
            first_at = total_mutations + mode_first
        total_mutations += stats["mutations"]
        mode_stats[mode] = stats
        if stop_on_first and first_at is not None:
            break
    return FuzzResult(exploits=exploits, mutations=total_mutations,
                      states_covered=sum(s["states_covered"]
                                         for s in mode_stats.values()),
                      mode_stats=mode_stats,
                      first_exploit_mutations=first_at)


def _run_mode(mode: str, policy: MempoolPolicy, cfg: OracleConfig,
              budget_mutations: int, budget_seconds: float,
              promising: bool, exploits: List[Exploit],
              emitted: Set[Tuple[str, str]], log_stream,
              reexec_audit: bool,
              stop_on_first: bool = False
              ) -> Tuple[dict, Optional[int]]:
    """One mode's search.  Returns its `mode_stats` entry and the
    mutations to its first exploit.  The entry holds the mutations, the
    states covered, the count of each logged outcome, and what stopped
    the search: `mutations`, `seconds`, `corpus_exhausted`, or
    `first_exploit` under `stop_on_first`."""
    m = policy.capacity
    fill_count = m if mode == "eviction" else 0
    pool = new_pool(policy)
    st0, _ = fill_normal(pool, fill_count)
    st0_fees = total_fees(st0)
    root_ctx = InstantiationContext(capacity=m, benign_next=fill_count + 1)
    corpus = Corpus()
    root_declined, _ = _probe_declines(pool, m)
    corpus.add(Seed(input=(), sym_state=symbolize_state(pool),
                    ctx=root_ctx, candidates=tuple(
                        enumerate_mutations(pool, root_ctx)),
                    decline_probes=len(root_declined)))
    # The path the pool stands on (see `walk`).
    held: List[Tuple[Transaction, Mark]] = []
    judge_locking = partial(check_locking, cfg=cfg)
    outcomes: Dict[str, int] = {}

    def record(seed_key: str, cand: SymbolizedTx, outcome: str, **fields):
        """Count a mutation's outcome and log it."""
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        if log_stream is not None:
            log_stream.write(json.dumps(
                {"mode": mode, "seed": seed_key,
                 "candidate": cand.serialize(), "outcome": outcome,
                 **fields}, sort_keys=True) + "\n")

    def judge(seed: Seed, seed_key: str, summary: PoolSummary,
              cand: SymbolizedTx, tx: Transaction,
              new_input: Tuple[SymbolizedTx, ...]) -> tuple:
        """Admit `tx` into the pool, walked to the seed's path, under a
        mark, judge it, keep its state as a new seed when feedback says
        so, and roll back.
        The result is the logged outcome, the state key, the verdict if it
        triggered, and whether feedback kept the state.  A repeat of `tx`
        in this seed replays it without feedback (see the module
        docstring): this judging left the key covered."""
        mark = pool.mark()
        try:
            outcome = pool.admit_mut(tx)
            if outcome.admitted:
                fresh = {s: summarize_sender(pool, s)
                         for s in pool.touched_since(mark)}
                new_sym = summary.state(fresh)
                key = new_sym.key
            else:
                fresh, key = {}, seed_key
            if reexec_audit:
                _audit_reexec(policy, new_input, fill_count, pool,
                              seed.txs + (tx,), outcome, key,
                              summary.fee(fresh))
            if not outcome.admitted:
                # The pool is the seed's, judged already (see the module
                # docstring).
                return "Declined", key, None, False
            declined_probes: Optional[List[Transaction]] = None
            if mode == "eviction":
                verdict = (check_eviction(st0, pool, cfg)
                           if Fraction(summary.fee(fresh), st0_fees)
                           < cfg.epsilon and evicted_all(st0, pool)
                           else None)
            else:
                declined_probes, verdict = (
                    _probe_declines(pool, m, judge_locking)
                    if could_lock(pool, summary.fee(fresh), cfg)
                    else (None, None))
                if reexec_audit:
                    _audit_locking(pool, m, judge_locking, verdict)
            if verdict is not None and verdict.triggered:
                return "Exploit", key, verdict, False
            fed_back = False
            if key not in corpus.covered:
                if declined_probes is None:
                    declined_probes, _ = _probe_declines(pool, m)
                ok = True
                if promising:
                    ok = st_promising(new_sym, seed.sym_state,
                                      len(declined_probes),
                                      seed.decline_probes)
                if ok:
                    ctx = seed.ctx.copy()
                    ctx.advance(cand)
                    corpus.add(Seed(
                        input=new_input, sym_state=new_sym, ctx=ctx,
                        candidates=tuple(enumerate_mutations(pool, ctx)),
                        txs=seed.txs + (tx,),
                        decline_probes=len(declined_probes)))
                    fed_back = True
                else:
                    corpus.covered.add(key)
            return outcome.kind, key, None, fed_back
        finally:
            pool.rollback(mark)

    mutations = 0
    first_at: Optional[int] = None
    deadline = time.monotonic() + budget_seconds
    while True:
        if mutations >= budget_mutations:
            stopped_by = "mutations"
            break
        if time.monotonic() >= deadline:
            stopped_by = "seconds"
            break
        if stop_on_first and first_at is not None:
            stopped_by = "first_exploit"
            break
        seed = corpus.select()
        if seed is None:
            stopped_by = "corpus_exhausted"
            break
        walk(pool, held, seed.txs)
        # Seed-scoped: the pool's summaries, taken once for all its
        # candidates, and what a repeated transaction replays (see the
        # module docstring).
        seed_key = seed.sym_state.key
        summary = PoolSummary(pool)
        replays: Dict[Transaction, tuple] = {}
        for cand, tx in seed.candidates:
            if mutations >= budget_mutations or \
                    time.monotonic() >= deadline:
                break
            mutations += 1
            new_input = seed.input + (cand,)
            replay = replays.get(tx)
            if replay is None or reexec_audit:
                result = judge(seed, seed_key, summary, cand, tx, new_input)
                if replay is None:
                    replays[tx] = result[:3] + (False,)
                elif result != replay:
                    raise AssertionError("replayed result diverged from "
                                         "full judging")
            else:
                result = replay
            outcome, key, verdict, fed_back = result
            if verdict is None:
                record(seed_key, cand, outcome, state=key,
                       feedback=fed_back)
                continue
            if first_at is None:
                first_at = mutations
            ex_key = exploit_key(verdict.kind, new_input)
            if ex_key not in emitted:
                emitted.add(ex_key)
                exploits.append(Exploit(
                    kind=verdict.kind, pattern=None, mut_config=policy,
                    symbol_sequence=new_input,
                    concrete_txs=list(seed.txs) + [tx], verdict=verdict,
                    end_state=key))
            record(seed_key, cand, outcome, state=key,
                   input=serialize_input(new_input))
            if stop_on_first:
                break
    return {"mutations": mutations, "states_covered": len(corpus.covered),
            "outcomes": outcomes, "stopped_by": stopped_by}, first_at

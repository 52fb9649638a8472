"""Reference fuzzers for ablation against the symbolized fuzzer.

All four share the same pool semantics and oracle; only the search
strategy differs:

  B1  stateless random byte strings parsed into transaction sequences
  B2  concrete-state-coverage fuzzer, FIFO corpus, append-one mutation
  B3  B2 reprioritized by the number of invalid resident transactions
  B4  the symbolized fuzzer with the promisingness gate disabled

The comparison metric is mutations to first exploit, which is hardware
independent.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .fuzzer import run_fuzzer
from .mempool import MempoolPolicy, MempoolState, fill_normal, new_pool
from .oracle import OracleConfig, check_eviction, evicted_all
from .txmodel import Transaction, adversarial

BASELINE_KINDS = ("B1", "B2", "B3", "B4")

# Transactions parsed from each B1 random input.
B1_TXS_PER_INPUT = 32
# Branching factors chosen empirically: B2's blind breadth-first search only
# reaches exploit depth within budget when the tree is narrow, while B3's
# greedy priority benefits from a wider fan-out.
CHILDREN_PER_SEED = {"B2": 24, "B3": 64}


@dataclass
class BaselineResult:
    kind: str
    found: bool
    mutations_to_first: Optional[int]
    mutations_total: int


def run_baseline(kind: str, policy: MempoolPolicy,
                 cfg: Optional[OracleConfig] = None,
                 budget_mutations: int = 2_000_000,
                 rng_seed: int = 0) -> BaselineResult:
    """Run one baseline until its first exploit or `budget_mutations`."""
    cfg = cfg or OracleConfig()
    if kind == "B1":
        return _run_b1(policy, cfg, budget_mutations, rng_seed)
    if kind in ("B2", "B3"):
        return _run_concrete(kind, policy, cfg, budget_mutations, rng_seed,
                             CHILDREN_PER_SEED[kind])
    if kind == "B4":
        res = run_fuzzer(policy, cfg, budget_mutations=budget_mutations,
                         budget_seconds=math.inf, rng_seed=rng_seed,
                         promising=False, modes=("eviction",),
                         stop_on_first=True)
        return BaselineResult("B4", res.first_exploit_mutations is not None,
                              res.first_exploit_mutations, res.mutations)
    raise ValueError(f"unknown baseline: {kind}")


def run_reference(policy: MempoolPolicy,
                  cfg: Optional[OracleConfig] = None,
                  budget_mutations: int = 2_000_000,
                  rng_seed: int = 0) -> BaselineResult:
    """The symbolized fuzzer itself, measured on the same metric."""
    res = run_fuzzer(policy, cfg, budget_mutations=budget_mutations,
                     budget_seconds=math.inf, rng_seed=rng_seed,
                     promising=True, modes=("eviction",),
                     stop_on_first=True)
    return BaselineResult("mpfuzz", res.first_exploit_mutations is not None,
                          res.first_exploit_mutations, res.mutations)


# -- B1: stateless -----------------------------------------------------------

def _run_b1(policy: MempoolPolicy, cfg: OracleConfig,
            budget: int, rng_seed: int) -> BaselineResult:
    """Random byte strings, 8 bytes per transaction, no feedback."""
    rng = random.Random(rng_seed)
    m = policy.capacity
    mutations = 0
    while mutations < budget:
        raw = rng.randbytes(8 * B1_TXS_PER_INPUT)
        state = new_pool(policy)
        st0 = fill_normal(state, m)
        for i in range(B1_TXS_PER_INPUT):
            if mutations >= budget:
                break
            chunk = raw[8 * i:8 * (i + 1)]
            sender = int.from_bytes(chunk[0:2], "big") % 65536
            nonce = max(1, int.from_bytes(chunk[2:4], "big"))
            value = int.from_bytes(chunk[4:6], "big")
            price = int.from_bytes(chunk[6:8], "big")
            mutations += 1
            state.admit_mut(Transaction(adversarial(sender + 1), nonce,
                                        value, price))
            if evicted_all(st0, state) and \
                    check_eviction(st0, state, cfg).triggered:
                return BaselineResult("B1", True, mutations, mutations)
    return BaselineResult("B1", False, None, mutations)


# -- B2/B3: concrete-state coverage ------------------------------------------

def _state_hash(state: MempoolState) -> Tuple:
    return tuple(sorted((e.tx.key(), e.is_future)
                        for e in state.entries.values()))


def _invalid_count(state: MempoolState) -> int:
    includable = {id(e) for e in state.includable_entries()}
    return sum(1 for e in state.entries.values() if id(e) not in includable)


def _run_concrete(kind: str, policy: MempoolPolicy, cfg: OracleConfig,
                  budget: int, rng_seed: int,
                  children: int) -> BaselineResult:
    """Append-one-transaction search over a concrete value grid.

    Coverage is a canonical hash of the resident set.  B2 pops seeds in
    FIFO order; B3 pops the seed with the most invalid residents first.
    """
    rng = random.Random(rng_seed)
    m = policy.capacity
    root = new_pool(policy)
    st0 = fill_normal(root, m)
    covered = {_state_hash(root)}
    mutations = 0
    order = 0
    if kind == "B2":
        queue = deque()

        def push(st):
            queue.append(st)

        def pop():
            return queue.popleft() if queue else None
    else:
        heap: List[Tuple[int, int, MempoolState]] = []

        def push(st):
            nonlocal order
            heapq.heappush(heap, (-_invalid_count(st), order, st))
            order += 1

        def pop():
            return heapq.heappop(heap)[2] if heap else None

    push(root)
    while mutations < budget:
        current = pop()
        if current is None:
            # Exhausted frontier: restart from the root with fresh draws.
            push(root)
            continue
        for _ in range(children):
            if mutations >= budget:
                break
            tx = Transaction(adversarial(rng.randrange(1, m + 1)),
                             rng.randrange(1, m + 1),
                             rng.randrange(1, m + 1),
                             rng.randrange(1, m + 1))
            mutations += 1
            nxt = current.clone()
            nxt.admit_mut(tx)
            if evicted_all(st0, nxt) and \
                    check_eviction(st0, nxt, cfg).triggered:
                return BaselineResult(kind, True, mutations, mutations)
            h = _state_hash(nxt)
            if h not in covered:
                covered.add(h)
                push(nxt)
    return BaselineResult(kind, False, None, mutations)

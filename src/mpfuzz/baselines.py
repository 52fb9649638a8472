"""Reference fuzzers for ablation against the symbolized fuzzer.

All four share the same pool semantics and oracle; only the search
strategy differs:

  B1  stateless random byte strings parsed into transaction sequences;
      an arrival that overdraws its sender is counted but never offered
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
import struct
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

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
        return _run_symbolized("B4", policy, cfg, budget_mutations, rng_seed,
                               promising=False)
    raise ValueError(f"unknown baseline: {kind}")


def run_reference(policy: MempoolPolicy,
                  cfg: Optional[OracleConfig] = None,
                  budget_mutations: int = 2_000_000,
                  rng_seed: int = 0) -> BaselineResult:
    """The symbolized fuzzer itself, measured on the same metric."""
    return _run_symbolized("mpfuzz", policy, cfg, budget_mutations, rng_seed,
                           promising=True)


def _run_symbolized(kind: str, policy: MempoolPolicy,
                    cfg: Optional[OracleConfig], budget: int, rng_seed: int,
                    promising: bool) -> BaselineResult:
    """The symbolized fuzzer's eviction search, stopped at its first
    exploit; `promising` turns its promisingness gate on or off."""
    res = run_fuzzer(policy, cfg, budget_mutations=budget,
                     budget_seconds=math.inf, rng_seed=rng_seed,
                     promising=promising, modes=("eviction",),
                     stop_on_first=True)
    return BaselineResult(kind, res.first_exploit_mutations is not None,
                          res.first_exploit_mutations, res.mutations)


# -- B1: stateless -----------------------------------------------------------

def _b1_fields(raw: bytes) -> Iterator[Tuple[int, int, int, int]]:
    """The (sender index, nonce, value, price) of each 8-byte arrival in
    `raw`: four big-endian 16-bit fields, the sender shifted to start at
    1 and the nonce raised to at least 1."""
    for sender, nonce, value, price in struct.iter_unpack(">HHHH", raw):
        yield sender + 1, max(1, nonce), value, price


def _run_b1(policy: MempoolPolicy, cfg: OracleConfig,
            budget: int, rng_seed: int) -> BaselineResult:
    """Random byte strings, 8 bytes per transaction, no feedback.

    Each input runs from the benign-filled root under a mark and is
    rolled back.  Only an admitted arrival is judged.  A declined one
    leaves the pool as it was: the root, which holds every initial
    resident and cannot trigger, or the pool of the input's last
    admission, which was judged untriggered then.

    An arrival whose value exceeds its sender's balance is counted as a
    mutation and skipped before it is built: `MempoolState.overdraws`
    holds for it, so `admit_mut` would decline it.  Every B1 sender is
    adversarial, and nothing writes an adversarial account: `fill_normal`
    offers only benign arrivals, and `build_block`, the one writer of
    balances, never runs here.  So each sender's balance is the world's
    default, read once, and about 7 in 65,536 random values are within
    it on a 6-slot pool."""
    rng = random.Random(rng_seed)
    root = new_pool(policy)
    st0, _ = fill_normal(root, policy.capacity)
    balance = root.world.default_balance
    mutations = 0
    while mutations < budget:
        raw = rng.randbytes(8 * B1_TXS_PER_INPUT)
        mark = root.mark()
        for sender, nonce, value, price in _b1_fields(raw):
            if mutations >= budget:
                break
            mutations += 1
            if value > balance:
                continue
            tx = Transaction(adversarial(sender), nonce, value, price)
            if root.admit_mut(tx).admitted and evicted_all(st0, root) and \
                    check_eviction(st0, root, cfg).triggered:
                return BaselineResult("B1", True, mutations, mutations)
        root.rollback(mark)
    return BaselineResult("B1", False, None, mutations)


# -- B2/B3: concrete-state coverage ------------------------------------------

def _state_hash(state: MempoolState) -> Tuple:
    """The resident set, as its sorted (transaction, `is_future`) pairs."""
    return tuple(sorted((e.tx, e.is_future) for e in state.entries.values()))


def _invalid_count(state: MempoolState) -> int:
    """Residents outside the block-includable chain prefixes."""
    return len(state) - len(state.includable_entries())


def _run_concrete(kind: str, policy: MempoolPolicy, cfg: OracleConfig,
                  budget: int, rng_seed: int,
                  children: int) -> BaselineResult:
    """Append-one-transaction search over a concrete value grid.

    Coverage is a canonical hash of the resident set.  The frontier is
    one heap on (priority, mutations at push, path): B2's priority is 0,
    which makes it FIFO; B3's is minus the count of invalid residents,
    taken on the child's pool before it is rolled back.
    No two pushes share a mutation count, so no two paths are compared.
    An empty frontier restarts the search at the root with fresh draws.

    A frontier entry is the path of transactions that led to its state
    from the benign-filled root, not a copy of the pool.  A pop opens a
    mark on the root and re-admits the path; each child is admitted
    under an inner mark and rolled back, and the root is then rolled
    back to the pop's mark.  The replay is exact.  Admission reads only
    the entries, the counters, the victim heaps and `_acct_key`, and a
    rollback restores each of them exactly (a mark copies the heap
    lists), so the root is the same pool at every pop and each
    re-admission does what it did when the path was first walked.  The
    chain cache may differ, but it always equals a fresh walk, and
    nothing reads the order of `entries`, which a rollback can change.

    A declined child is its parent's resident set, which is covered and
    did not trigger when it was pushed (the root holds every initial
    resident), so it is neither judged nor hashed.
    """
    rng = random.Random(rng_seed)
    m = policy.capacity
    senders = [adversarial(i) for i in range(m + 1)]  # drawn from 1..m
    root = new_pool(policy)
    st0, _ = fill_normal(root, m)
    covered = {_state_hash(root)}
    mutations = 0
    frontier: List[Tuple[int, int, Tuple[Transaction, ...]]] = []
    while mutations < budget:
        path = heapq.heappop(frontier)[2] if frontier else ()
        pop = root.mark()
        for tx in path:
            root.admit_mut(tx)
        for _ in range(children):
            if mutations >= budget:
                break
            tx = Transaction(senders[rng.randrange(1, m + 1)],
                             rng.randrange(1, m + 1),
                             rng.randrange(1, m + 1),
                             rng.randrange(1, m + 1))
            mutations += 1
            mark = root.mark()
            if not root.admit_mut(tx).admitted:
                root.rollback(mark)
                continue
            if evicted_all(st0, root) and \
                    check_eviction(st0, root, cfg).triggered:
                return BaselineResult(kind, True, mutations, mutations)
            h = _state_hash(root)
            if h not in covered:
                covered.add(h)
                heapq.heappush(frontier, (
                    -_invalid_count(root) if kind == "B3" else 0,
                    mutations, path + (tx,)))
            root.rollback(mark)
        root.rollback(pop)
    return BaselineResult(kind, False, None, mutations)

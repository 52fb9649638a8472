"""The benchmark's four workloads.

A workload is a round of operations issued one after another (a closed
loop on one thread): one fuzzer campaign, one pattern evaluation or one
baseline run each.  Every round of a workload issues the same operations
on the same inputs, so its counts repeat exactly.

Every ``run_fuzzer`` call stops on its mutation budget or when its corpus
runs out, never on wall time, so no count depends on the machine.

This module imports ``mpfuzz`` only inside functions: the set-up phase
imports the package afresh, and nothing here may hold an older copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence

EPSILON_DEEP = Fraction(36, 100)
EPSILON_BASELINES = Fraction(2, 10)
LAMBDA = Fraction(46, 100)

EVICT_DEEP_PRESETS = ("openethereum-reduced(16)", "geth-legacy-reduced(16)")
EVICT_DEEP_BUDGET = 5000
CAMPAIGN_SIZE = 6
PATTERNS_SIZE = 512
BASELINE_PRESET = "geth-legacy-reduced(6)"
# mpfuzz.mempool.PRESET_FAMILIES, in its order.
FAMILIES = ("geth-legacy", "geth-1.11", "nethermind-legacy",
            "nethermind-1.18", "besu-legacy", "besu-22.7", "reth-fifo",
            "openethereum")
B1_BUDGET = 50_000
B2_BUDGET = 20_000
# A budget no campaign reaches: the campaign ends when its corpus runs out.
UNBOUNDED = 10 ** 12


@dataclass
class Op:
    """One operation of a round.

    ``check`` verifies a result apart from the program and returns its
    summary (``mutations`` and ``first``, the mutations to its first
    exploit or None); ``fingerprint`` is what a later round's result must
    repeat to share the checked summary.
    """
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], dict]
    fingerprint: Callable[[Any], Any]


@dataclass(frozen=True)
class Spec:
    """A workload: the presets set-up resolves, ``build(policies, cfg,
    seed)`` making its ops, and ``round_check(summaries)`` giving a
    round's mutations to first exploit (None marks a failed op); it raises
    CheckFailed when a check that spans ops fails."""
    name: str
    presets: Sequence[str]
    epsilon: Fraction
    build: Callable[..., List[Op]]
    round_check: Callable[[List[Optional[dict]]], int]


def _reduced(size: int) -> tuple:
    return tuple(f"{fam}-reduced({size})" for fam in FAMILIES)


# -- fuzzer campaigns -------------------------------------------------------

def _fuzz_fingerprint(res) -> tuple:
    from mpfuzz.symbolic import serialize_input
    return (res.mutations, res.first_exploit_mutations, res.states_covered,
            sorted((k, v["mutations"], v["states_covered"])
                   for k, v in res.mode_stats.items()),
            [(e.kind, serialize_input(e.symbol_sequence), e.verdict.asym)
             for e in res.exploits])


def _fuzz_op(label: str, policy, cfg, seed: int, budget: int,
             modes: Sequence[str]) -> Op:
    from check import CheckFailed, check_exploit

    def run():
        from mpfuzz import fuzzer
        return fuzzer.run_fuzzer(policy, cfg, budget_mutations=budget,
                                 budget_seconds=math.inf, rng_seed=seed,
                                 modes=tuple(modes))

    def check(res) -> dict:
        if set(res.mode_stats) != set(modes):
            raise CheckFailed(f"modes run: {sorted(res.mode_stats)}")
        if res.mutations > budget or (budget < UNBOUNDED and
                                      res.mutations != budget):
            raise CheckFailed(f"{res.mutations} mutations, budget {budget}")
        if (res.first_exploit_mutations is None) != (not res.exploits):
            raise CheckFailed("first-exploit count and exploits disagree")
        for exploit in res.exploits:
            check_exploit(exploit, cfg.epsilon, cfg.lam)
        return {"mutations": res.mutations,
                "first": res.first_exploit_mutations}

    return Op(label, run, check, _fuzz_fingerprint)


def _sum_first(summaries: List[Optional[dict]]) -> int:
    """Mutations to the first exploit, summed over the ops that find one;
    a failed op (None) counts as finding none."""
    return sum(s["first"] for s in summaries if s and s["first"] is not None)


def build_evict_deep(policies, cfg, seed: int) -> List[Op]:
    return [_fuzz_op(p.name, p, cfg, seed, EVICT_DEEP_BUDGET, ("eviction",))
            for p in policies]


def build_campaign_small(policies, cfg, seed: int) -> List[Op]:
    return [_fuzz_op(p.name, p, cfg, seed, UNBOUNDED,
                     ("eviction", "locking"))
            for p in policies]


# -- pattern matrix ---------------------------------------------------------

def _pattern_op(pattern: str, family: str, policy, cfg) -> Op:
    from check import CheckFailed, check_pattern

    def run():
        from mpfuzz import exploitkit
        return exploitkit.run_pattern(pattern, policy, cfg)

    def check(res) -> dict:
        from mpfuzz import exploitkit
        from mpfuzz.mempool import VULNERABILITY_MATRIX
        expected = pattern in VULNERABILITY_MATRIX[family]
        if res.success != expected:
            raise CheckFailed(f"success {res.success}, matrix says "
                              f"{expected}")
        if exploitkit.pattern_compatible(pattern, policy) is not None:
            return {"mutations": 0, "first": None, "success": False}
        txs = exploitkit.generate_xt(pattern, policy)
        if res.success:
            check_pattern(exploitkit.pattern_kind(pattern), policy, txs,
                          res.verdict)
        return {"mutations": len(txs), "first": None,
                "success": res.success}

    def fingerprint(res):
        return (res.success, res.all_admitted,
                res.verdict.asym if res.verdict else None)

    return Op(f"{pattern}@{policy.name}", run, check, fingerprint)


def build_patterns_large(policies, cfg, seed: int) -> List[Op]:
    from mpfuzz.exploitkit import XT_PATTERNS
    return [_pattern_op(p, fam, pol, cfg)
            for fam, pol in zip(FAMILIES, policies)
            for p in XT_PATTERNS]


def _patterns_first(summaries: List[Optional[dict]]) -> int:
    """Per preset, the scheduled attack transactions of XT1, XT2, ... up
    to and including the first pattern that succeeds, summed."""
    from mpfuzz.exploitkit import XT_PATTERNS
    total = 0
    n = len(XT_PATTERNS)
    for i in range(0, len(summaries), n):
        spent = 0
        for s in summaries[i:i + n]:
            if s is None:
                break
            spent += s["mutations"]
            if s["success"]:
                total += spent
                break
    return total


# -- baselines --------------------------------------------------------------

def build_baselines(policies, cfg, seed: int) -> List[Op]:
    from check import CheckFailed
    (policy,) = policies

    def summary(res) -> dict:
        return {"mutations": res.mutations_total,
                "first": res.mutations_to_first, "kind": res.kind}

    def to_first(res) -> dict:
        if not res.found or res.mutations_to_first != res.mutations_total:
            raise CheckFailed(f"{res.kind} found no exploit")
        return summary(res)

    def budgeted(budget: int):
        def check(res) -> dict:
            if res.found and not (res.mutations_to_first ==
                                  res.mutations_total <= budget):
                raise CheckFailed(f"{res.kind} found past its budget")
            if not res.found and res.mutations_total != budget:
                raise CheckFailed(f"{res.kind} used {res.mutations_total} "
                                  f"of {budget} mutations")
            return summary(res)
        return check

    def fingerprint(res):
        return (res.kind, res.found, res.mutations_to_first,
                res.mutations_total)

    def reference():
        from mpfuzz import baselines
        return baselines.run_reference(policy, cfg, rng_seed=seed)

    def baseline(kind: str, budget: Optional[int] = None):
        def run():
            from mpfuzz import baselines
            kwargs = {} if budget is None else {"budget_mutations": budget}
            return baselines.run_baseline(kind, policy, cfg, rng_seed=seed,
                                          **kwargs)
        return run

    return [Op("mpfuzz", reference, to_first, fingerprint),
            Op("B4", baseline("B4"), to_first, fingerprint),
            Op("B3", baseline("B3"), to_first, fingerprint),
            Op("B1", baseline("B1", B1_BUDGET), budgeted(B1_BUDGET),
               fingerprint),
            Op("B2", baseline("B2", B2_BUDGET), budgeted(B2_BUDGET),
               fingerprint)]


def _baselines_first(summaries: List[Optional[dict]]) -> int:
    """Also checks mpfuzz <= B4 < B3 and mpfuzz <= B3/10, when all three
    ran."""
    from check import CheckFailed
    first = {s["kind"]: s["first"] for s in summaries if s}
    if all(k in first for k in ("mpfuzz", "B4", "B3")):
        ref, b4, b3 = first["mpfuzz"], first["B4"], first["B3"]
        if not (ref <= b4 < b3 and 10 * ref <= b3):
            raise CheckFailed(f"order mpfuzz {ref} <= B4 {b4} < B3 {b3} "
                              f"and mpfuzz <= B3/10 does not hold")
    return _sum_first(summaries)


SPECS: Dict[str, Spec] = {s.name: s for s in (
    Spec("evict-deep", EVICT_DEEP_PRESETS, EPSILON_DEEP, build_evict_deep,
         _sum_first),
    Spec("campaign-small", _reduced(CAMPAIGN_SIZE), EPSILON_DEEP,
         build_campaign_small, _sum_first),
    Spec("patterns-large", _reduced(PATTERNS_SIZE), EPSILON_DEEP,
         build_patterns_large, _patterns_first),
    Spec("baselines", (BASELINE_PRESET,), EPSILON_BASELINES, build_baselines,
         _baselines_first),
)}

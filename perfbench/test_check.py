"""The benchmark's output checks accept the program's exploits and reject
a wrong asym or an end state where an initial resident survives.

    python3 -m pytest perfbench/test_check.py
"""

import os
import sys
from dataclasses import replace
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import pytest  # noqa: E402

from check import CheckFailed, check_exploit, check_pattern  # noqa: E402
from mpfuzz.exploitkit import Exploit, generate_xt, run_pattern  # noqa: E402
from mpfuzz.fuzzer import run_fuzzer  # noqa: E402
from mpfuzz.mempool import policy_preset  # noqa: E402
from mpfuzz.oracle import OracleConfig  # noqa: E402

EPS = Fraction(36, 100)
LAM = Fraction(46, 100)


def _pattern_exploit(pattern, preset, kind):
    policy = policy_preset(preset)
    res = run_pattern(pattern, policy, OracleConfig(epsilon=EPS, lam=LAM))
    assert res.success
    return Exploit(kind=kind, pattern=pattern, mut_config=policy,
                   symbol_sequence=(), concrete_txs=generate_xt(pattern, policy),
                   verdict=res.verdict)


def test_accepts_the_fuzzers_exploits():
    res = run_fuzzer(policy_preset("geth-legacy-reduced(3)"),
                     OracleConfig(epsilon=EPS, lam=LAM), budget_mutations=2000)
    kinds = {e.kind for e in res.exploits}
    assert kinds == {"Eviction", "Locking"}
    for exploit in res.exploits:
        check_exploit(exploit, EPS, LAM)


@pytest.mark.parametrize("pattern,preset,kind", [
    ("XT1", "geth-legacy-reduced(6)", "Eviction"),
    ("XT8", "reth-fifo-reduced(6)", "Locking"),
])
def test_rejects_a_wrong_asym(pattern, preset, kind):
    exploit = _pattern_exploit(pattern, preset, kind)
    check_exploit(exploit, EPS, LAM)
    wrong = replace(exploit.verdict, asym=exploit.verdict.asym + Fraction(1, 100))
    with pytest.raises(CheckFailed, match="recomputed"):
        check_exploit(replace(exploit, verdict=wrong), EPS, LAM)
    with pytest.raises(CheckFailed, match="recomputed"):
        check_pattern(kind, exploit.mut_config, exploit.concrete_txs, wrong)


def test_rejects_a_surviving_initial_resident():
    exploit = _pattern_exploit("XT1", "geth-legacy-reduced(6)", "Eviction")
    short = replace(exploit, concrete_txs=exploit.concrete_txs[:-1])
    with pytest.raises(CheckFailed, match="survives"):
        check_exploit(short, EPS, LAM)


def test_rejects_an_asym_at_the_bound():
    exploit = _pattern_exploit("XT1", "geth-legacy-reduced(6)", "Eviction")
    with pytest.raises(CheckFailed, match="not below"):
        check_exploit(exploit, exploit.verdict.asym, LAM)

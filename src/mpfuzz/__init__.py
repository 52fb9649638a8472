"""Mempool admission-policy modeling, symbolized fuzzing, and exploit
replay for asymmetric denial-of-mempool-service analysis."""

from .txmodel import (GAS_PER_TX, Address, Transaction, ValidityClass,
                      WorldState, adversarial, benign)
from .mempool import (AdmissionOutcome, DeclineReason, EvictionRule,
                      MempoolPolicy, MempoolState, TurningRule,
                      VULNERABILITY_MATRIX, build_block, fill_normal,
                      new_pool, policy_preset, PRESET_FAMILIES)
from .symbolic import (InfeasibleSymbol, InstantiationContext, SymbolizedTx,
                       SymbolizedState, cost, enumerate_mutations,
                       execute_input, instantiate, opcost, parse_input,
                       serialize_input, symbolize_state)
from .oracle import (OracleConfig, OracleVerdict, asym_D, asym_E,
                     check_eviction, check_locking, classify_tp_fp)
from .fuzzer import FuzzResult, run_fuzzer
from .exploitkit import (Exploit, ExtensionFailed, PatternIncompatible,
                         ReplayReport, XT_PATTERNS,
                         base_price_step_float, dedup, extend, generate_xt,
                         replay, run_pattern, simulate_xt8a,
                         vulnerability_matrix)
from .baselines import BASELINE_KINDS, BaselineResult, run_baseline

__version__ = "0.1.0"

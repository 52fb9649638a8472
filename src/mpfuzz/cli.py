"""Command-line front end: fuzz, extend, replay, eval, compare, presets.

Configuration precedence is flags > config file > preset defaults.  The
config file is JSON.  All payload outputs are deterministic for a fixed
config and seed; wall-clock figures are kept out of persisted files.
"""

from __future__ import annotations

import csv
import json
import os
import statistics
from typing import Optional

import click

from .baselines import BASELINE_KINDS, run_baseline, run_reference
from .exploitkit import (Exploit, ExtensionFailed, WorkloadSpec, XT_PATTERNS,
                         extend, replay, run_pattern)
from .mempool import (MempoolPolicy, PRESET_FAMILIES, VULNERABILITY_MATRIX,
                      policy_preset)
from .oracle import OracleConfig
from .fuzzer import run_fuzzer


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    with open(path) as f:
        return json.load(f)


def _resolve_policy(preset: Optional[str], config: dict) -> MempoolPolicy:
    """The policy of a user-given preset and the config's `policy`
    overrides; every command resolves its preset here, so a bad one is a
    usage error (exit 2)."""
    name = preset or config.get("preset")
    if not name:
        raise click.UsageError("no preset given (flag --preset or config)")
    try:
        policy = policy_preset(name)
        overrides = config.get("policy", {})
        if overrides:
            merged = policy.to_json()
            merged.update(overrides)
            policy = MempoolPolicy.from_json(merged)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    return policy


def _resolve_oracle(epsilon, lam, config: dict) -> OracleConfig:
    """The oracle thresholds of the flags and the config; a non-positive
    one is a usage error (exit 2)."""
    eps = epsilon if epsilon is not None else config.get("epsilon")
    lm = lam if lam is not None else config.get("lambda")
    kwargs = {}
    if eps is not None:
        kwargs["epsilon"] = eps
    if lm is not None:
        kwargs["lam"] = lm
    try:
        return OracleConfig(**kwargs)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


@click.group()
def main():
    """Mempool admission-policy fuzzer and exploit toolkit."""


_common = [
    click.option("--config", "config_path", type=click.Path(exists=True),
                 default=None, help="JSON config file."),
    click.option("--preset", default=None, help="Policy preset name."),
    click.option("--epsilon", type=float, default=None,
                 help="Eviction oracle threshold."),
    click.option("--lambda", "lam", type=float, default=None,
                 help="Locking oracle threshold."),
    click.option("--seed", type=int, default=None, help="RNG seed."),
    click.option("--out", "out_dir", type=click.Path(), default="out",
                 help="Output directory."),
]


def common_options(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


@main.command()
@common_options
@click.option("--budget-mutations", type=int, default=None)
@click.option("--budget-seconds", type=float, default=None)
@click.option("--no-cache", is_flag=True, default=False,
              help="Re-execute every input instead of trusting cached "
                   "concrete states.")
def fuzz(config_path, preset, epsilon, lam, seed, out_dir,
         budget_mutations, budget_seconds, no_cache):
    """Run the symbolized fuzzer and write exploits + progress log."""
    config = _load_config(config_path)
    policy = _resolve_policy(preset, config)
    cfg = _resolve_oracle(epsilon, lam, config)
    rng_seed = seed if seed is not None else config.get("seed", 0)
    muts = budget_mutations if budget_mutations is not None else \
        config.get("budget_mutations", 100_000)
    if muts < 1:
        raise click.UsageError(f"budget_mutations must be at least 1, "
                               f"got {muts}")
    secs = budget_seconds if budget_seconds is not None else \
        config.get("budget_seconds", 300.0)
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "progress.jsonl")
    with open(log_path, "w") as log:
        result = run_fuzzer(policy, cfg, budget_mutations=muts,
                            budget_seconds=secs, rng_seed=rng_seed,
                            log_stream=log, reexec_audit=no_cache)
    for i, ex in enumerate(result.exploits):
        ex.save(os.path.join(out_dir, f"exploit-{i:03d}.json"))
    _write_json(os.path.join(out_dir, "summary.json"), {
        "preset": policy.name,
        "oracle": cfg.to_json(),
        "seed": rng_seed,
        "mutations": result.mutations,
        "states_covered": result.states_covered,
        "exploits": len(result.exploits),
        "exploit_inputs": [" ".join(t.serialize()
                                    for t in ex.symbol_sequence)
                           for ex in result.exploits],
        "mode_stats": result.mode_stats,
    })
    click.echo(f"found {len(result.exploits)} exploit(s) in "
               f"{result.mutations} mutations")


@main.command("extend")
@click.argument("exploit_file", type=click.Path(exists=True))
@click.option("--target-preset", required=True)
@click.option("--epsilon", type=float, default=None)
@click.option("--lambda", "lam", type=float, default=None)
@click.option("--out", "out_path", type=click.Path(),
              default="extended.json")
def cmd_extend(exploit_file, target_preset, epsilon, lam, out_path):
    """Scale a short exploit up to a full-size policy."""
    short = Exploit.load(exploit_file)
    target = _resolve_policy(target_preset, {})
    cfg = _resolve_oracle(epsilon, lam, {})
    try:
        extended = extend(short, target, cfg)
    except ExtensionFailed as exc:
        _write_json(out_path, {"extension_failed": str(exc),
                               "trace": exc.trace[-20:]})
        click.echo(f"extension failed: {exc}")
        return
    extended.save(out_path)
    click.echo(f"extended exploit -> {out_path} "
               f"(triggered={extended.verdict.triggered})")


@main.command("replay")
@click.argument("exploit_file", type=click.Path(exists=True))
@click.option("--preset", required=True)
@click.option("--blocks", type=int, default=20)
@click.option("--txs-per-block", type=int, default=8)
@click.option("--out", "out_path", type=click.Path(), default="replay.json")
def cmd_replay(exploit_file, preset, blocks, txs_per_block, out_path):
    """Replay an exploit file against a workload and report damage."""
    ex = Exploit.load(exploit_file)
    policy = _resolve_policy(preset, {})
    workload = WorkloadSpec(txs_per_block=txs_per_block,
                            block_tx_capacity=txs_per_block)
    report = replay(ex.concrete_txs, policy, workload, blocks)
    _write_json(out_path, report.to_json())
    click.echo(f"success_rate={report.success_rate:.4f} "
               f"cost/block={report.cost_per_block:.1f}")


@main.command("eval")
@click.option("--pattern", type=click.Choice(XT_PATTERNS), required=True)
@click.option("--preset", required=True)
@click.option("--epsilon", type=float, default=None)
@click.option("--lambda", "lam", type=float, default=None)
@click.option("--out", "out_path", type=click.Path(), default="eval.json")
def cmd_eval(pattern, preset, epsilon, lam, out_path):
    """Run a named attack pattern against a preset and score it."""
    policy = _resolve_policy(preset, {})
    cfg = _resolve_oracle(epsilon, lam, {})
    result = run_pattern(pattern, policy, cfg)
    _write_json(out_path, result.to_json())
    if result.reason:
        click.echo(f"{pattern} on {preset}: incompatible ({result.reason})")
    else:
        click.echo(f"{pattern} on {preset}: success={result.success}")


@main.command("compare")
@click.option("--preset", default="geth-legacy-reduced(6)")
@click.option("--baselines", default="B1,B2,B3,B4")
@click.option("--repeats", type=click.IntRange(min=1), default=5)
@click.option("--budget-mutations", type=click.IntRange(min=1),
              default=2_000_000)
@click.option("--epsilon", type=float, default=0.2)
@click.option("--out", "out_path", type=click.Path(), default="compare.csv")
def cmd_compare(preset, baselines, repeats, budget_mutations, epsilon,
                out_path):
    """Mutations-to-first-exploit grid: reference fuzzer vs baselines."""
    policy = _resolve_policy(preset, {})
    cfg = _resolve_oracle(epsilon, None, {})
    kinds = [b.strip() for b in baselines.split(",") if b.strip()]
    for k in kinds:
        if k not in BASELINE_KINDS:
            raise click.UsageError(f"unknown baseline {k}")
    rows = []
    for rng_seed in range(repeats):
        ref = run_reference(policy, cfg, budget_mutations, rng_seed)
        rows.append(["mpfuzz", policy.name, policy.capacity, rng_seed,
                     ref.mutations_to_first, ref.found])
        for k in kinds:
            res = run_baseline(k, policy, cfg, budget_mutations, rng_seed)
            rows.append([k, policy.name, policy.capacity, rng_seed,
                         res.mutations_to_first, res.found])
    with open(out_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["baseline", "preset", "m", "rng_seed",
                    "mutations_to_first", "found"])
        w.writerows(rows)
    medians = {}
    missed = set()
    for row in rows:
        medians.setdefault(row[0], []).append(
            row[4] if row[4] is not None else budget_mutations)
        if not row[5]:
            missed.add(row[0])
    for name, vals in medians.items():
        medians[name] = statistics.median(vals)
        click.echo(f"{name}: median {medians[name]:.0f}")
    # The paper's headline: how many times mpfuzz's mutations to first
    # exploit each baseline needs.  A median over a missed repeat counts
    # the budget, so it is only a lower bound.
    for k in kinds:
        if k in missed and "mpfuzz" in missed:
            click.echo(f"{k}/mpfuzz: unbounded, both missed in a repeat")
            continue
        bound = "≥ " if k in missed else "≤ " if "mpfuzz" in missed else ""
        click.echo(f"{k}/mpfuzz: {bound}"
                   f"{medians[k] / medians['mpfuzz']:.1f}x")


@main.command("presets")
@click.option("--filter", "name_filter", default=None)
def cmd_presets(name_filter):
    """List policy presets and their known-vulnerability rows."""
    for name in PRESET_FAMILIES:
        if name_filter and name_filter not in name:
            continue
        pol = policy_preset(name)
        vulns = sorted(VULNERABILITY_MATRIX.get(name, ()))
        click.echo(f"{name}: m={pol.capacity} py1={pol.future_quota} "
                   f"py2={pol.sender_limit} "
                   f"py3={pol.sender_limit_threshold} "
                   f"eviction={pol.eviction_rule.value} "
                   f"turning={pol.turning_rule.value} "
                   f"vulnerable_to={','.join(vulns) or '-'}")


def entry():
    main(auto_envvar_prefix="MPFUZZ")


if __name__ == "__main__":
    entry()

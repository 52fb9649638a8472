"""Command-line interface, via click's test runner."""

import json
import os

import pytest
from click.testing import CliRunner

from mpfuzz.cli import main
from mpfuzz.fuzzer import run_fuzzer
from mpfuzz.mempool import policy_preset
from mpfuzz.oracle import OracleConfig

PRESET3 = "geth-1.11-reduced(3,1,2,2)"


def run_cli(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


def test_presets_lists_families():
    res = run_cli("presets")
    assert res.exit_code == 0
    assert "geth-legacy" in res.output
    assert "reth-fifo" in res.output


def test_presets_filter():
    res = run_cli("presets", "--filter", "nethermind")
    assert res.exit_code == 0
    assert "geth" not in res.output


def test_fuzz_writes_outputs(tmp_path):
    out = str(tmp_path / "out")
    res = run_cli("fuzz", "--preset", PRESET3, "--epsilon", "0.0001",
                  "--out", out)
    assert res.exit_code == 0
    files = sorted(os.listdir(out))
    assert "progress.jsonl" in files
    assert "summary.json" in files
    assert any(f.startswith("exploit-") for f in files)
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert "P C1 P0 C1 C1" in summary["exploit_inputs"]


def test_fuzz_outputs_are_reproducible(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        run_cli("fuzz", "--preset", PRESET3, "--epsilon", "0.0001",
                "--seed", "5", "--out", out)
        outs.append({f: open(os.path.join(out, f), "rb").read()
                     for f in sorted(os.listdir(out))})
    assert outs[0] == outs[1]


def test_fuzz_accepts_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": PRESET3, "epsilon": 0.0001,
                               "budget_mutations": 500}))
    out = str(tmp_path / "out")
    res = run_cli("fuzz", "--config", str(cfg), "--out", out)
    assert res.exit_code == 0
    assert json.load(open(os.path.join(out, "summary.json")))["mutations"] \
        <= 500


def test_fuzz_rejects_a_bad_policy_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": PRESET3,
                               "policy": {"capacity": -3}}))
    res = CliRunner().invoke(main, ["fuzz", "--config", str(cfg),
                                    "--out", str(tmp_path / "out")])
    assert res.exit_code != 0
    assert "capacity" in res.output
    assert not (tmp_path / "out").exists()


def test_eval_success_and_incompatible(tmp_path):
    out = str(tmp_path / "eval.json")
    res = run_cli("eval", "--pattern", "XT1", "--preset",
                  "geth-legacy-reduced(6)", "--out", out)
    assert res.exit_code == 0
    assert json.load(open(out))["success"] is True
    res2 = run_cli("eval", "--pattern", "XT7", "--preset",
                   "geth-legacy-reduced(6)", "--out", out)
    assert res2.exit_code == 0
    assert json.load(open(out))["success"] is False


def test_extend_and_replay_round(tmp_path):
    out = str(tmp_path / "out")
    run_cli("fuzz", "--preset", "geth-legacy-reduced(3)", "--epsilon",
            "0.2", "--out", out)
    exploit = os.path.join(out, "exploit-000.json")
    assert os.path.exists(exploit)
    extended = str(tmp_path / "extended.json")
    res = run_cli("extend", exploit, "--target-preset",
                  "geth-legacy-reduced(6)", "--out", extended)
    assert res.exit_code == 0
    assert json.load(open(extended))["verdict"]["triggered"] is True
    replay_out = str(tmp_path / "replay.json")
    res2 = run_cli("replay", extended, "--preset",
                   "geth-legacy-reduced(6)", "--blocks", "6",
                   "--txs-per-block", "2", "--out", replay_out)
    assert res2.exit_code == 0
    assert "success_rate" in json.load(open(replay_out))


def test_extend_divergence_reports_failure(tmp_path):
    out = str(tmp_path / "out")
    run_cli("fuzz", "--preset", "geth-legacy-reduced(3)", "--epsilon",
            "0.2", "--out", out)
    extended = str(tmp_path / "extended.json")
    res = run_cli("extend", os.path.join(out, "exploit-000.json"),
                  "--target-preset", "reth-fifo-reduced(6)",
                  "--out", extended)
    assert res.exit_code == 0
    payload = json.load(open(extended))
    assert "extension_failed" in payload and payload["trace"]


def test_compare_writes_csv(tmp_path):
    out = str(tmp_path / "compare.csv")
    res = run_cli("compare", "--preset", "geth-legacy-reduced(6)",
                  "--baselines", "B3,B4", "--repeats", "1",
                  "--budget-mutations", "5000", "--out", out)
    assert res.exit_code == 0
    lines = open(out).read().splitlines()
    assert lines[0].startswith("baseline,")
    assert len(lines) == 4  # header + mpfuzz + B3 + B4


def test_compare_prints_speedup_ratios(tmp_path):
    out = str(tmp_path / "compare.csv")
    res = run_cli("compare", "--preset", "geth-legacy-reduced(6)",
                  "--baselines", "B1,B4", "--repeats", "1",
                  "--budget-mutations", "540", "--out", out)
    assert res.exit_code == 0
    lines = res.output.splitlines()
    # mpfuzz and B4 both find at mutation 27; B1 misses, so its median is
    # the budget and the ratio only a lower bound.
    assert "mpfuzz: median 27" in lines
    assert "B4/mpfuzz: 1.0x" in lines
    assert "B1/mpfuzz: ≥ 20.0x" in lines


def saved_exploit(tmp_path):
    path = str(tmp_path / "exploit.json")
    run_fuzzer(policy_preset("geth-legacy-reduced(3)"),
               OracleConfig(epsilon=0.2),
               stop_on_first=True).exploits[0].save(path)
    return path


@pytest.mark.parametrize("command", ["extend", "replay", "eval", "compare"])
def test_bad_preset_is_a_usage_error(tmp_path, command):
    bad = "geth-legacy-reduced(0)"
    exploit = saved_exploit(tmp_path)
    args = {
        "extend": ["extend", exploit, "--target-preset", bad],
        "replay": ["replay", exploit, "--preset", bad],
        "eval": ["eval", "--pattern", "XT1", "--preset", bad],
        "compare": ["compare", "--preset", bad],
    }[command]
    out = str(tmp_path / "out")
    res = CliRunner().invoke(main, args + ["--out", out])
    assert res.exit_code == 2, res.output
    assert bad in res.output
    assert "Traceback" not in res.output
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, threshold", [
    ("fuzz", ["--epsilon", "0"]), ("fuzz", ["--lambda", "-0.5"]),
    ("fuzz", "config"), ("extend", ["--epsilon", "-1"]),
    ("extend", ["--lambda", "0"]), ("eval", ["--epsilon", "0"]),
    ("eval", ["--lambda", "-2"]), ("compare", ["--epsilon", "0"]),
])
def test_non_positive_threshold_is_a_usage_error(tmp_path, command,
                                                 threshold):
    out = str(tmp_path / "out")
    if threshold == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": PRESET3, "lambda": 0}))
        args = ["fuzz", "--config", str(cfg)]
    else:
        args = {
            "fuzz": ["fuzz", "--preset", PRESET3],
            "extend": ["extend", saved_exploit(tmp_path), "--target-preset",
                       "geth-legacy-reduced(6)"],
            "eval": ["eval", "--pattern", "XT1", "--preset",
                     "geth-legacy-reduced(6)"],
            "compare": ["compare", "--baselines", "B4", "--repeats", "1"],
        }[command] + threshold
    res = CliRunner().invoke(main, args + ["--out", out])
    assert res.exit_code == 2, res.output
    assert "thresholds must be positive" in res.output
    assert "Traceback" not in res.output
    assert not os.path.exists(out)


@pytest.mark.parametrize("args, via_config", [
    (["fuzz", "--preset", PRESET3, "--budget-mutations", "-5"], False),
    (["fuzz", "--preset", PRESET3, "--budget-mutations", "0"], False),
    (["fuzz"], True),
    (["compare", "--repeats", "0"], False),
    (["compare", "--budget-mutations", "-1"], False),
])
def test_empty_run_is_a_usage_error(tmp_path, args, via_config):
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": PRESET3,
                                   "budget_mutations": 0}))
        args = args + ["--config", str(cfg)]
    out = str(tmp_path / "out")
    res = CliRunner().invoke(main, args + ["--out", out])
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output
    assert not os.path.exists(out)

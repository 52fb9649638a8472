"""Command-line interface, via click's test runner."""

import csv
import json
import os
import subprocess
import sys
from collections import Counter

import pytest
from click.testing import CliRunner

import mpfuzz.cli as cli
from mpfuzz.cli import main
from mpfuzz.fuzzer import run_fuzzer
from mpfuzz.mempool import policy_preset
from mpfuzz.oracle import OracleConfig
from test_mempool import BAD_POLICY_VALUES
from test_txmodel import BAD_TX_RECORD

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
                "--out", out)
        outs.append({f: open(os.path.join(out, f), "rb").read()
                     for f in sorted(os.listdir(out))})
    assert outs[0] == outs[1]


# Each command of a small campaign, run in order in one interpreter; the
# last line printed is the hash of an address.
HASH_SEED_RUN = """
from mpfuzz.cli import main
from mpfuzz.txmodel import benign
for args in [
    ["fuzz", "--preset", "geth-legacy-reduced(3)", "--out", "fuzz-geth"],
    ["fuzz", "--preset", "nethermind-legacy-reduced(3)", "--no-cache",
     "--out", "fuzz-nethermind"],
    ["eval", "--pattern", "XT1", "--preset", "geth-legacy-reduced(6)",
     "--out", "xt1.json"],
    ["eval", "--pattern", "XT8", "--preset", "geth-1.11-reduced(6)",
     "--out", "xt8.json"],
    ["compare", "--repeats", "2", "--budget-mutations", "3000",
     "--out", "compare.csv"],
]:
    main(args, standalone_mode=False)
print(hash(benign(1)))
"""


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # Python salts str hashes per process, so a set or dict order that
    # reached an output would differ between these two runs.  Identities
    # hash as tuples of ints and bools, which no salt changes.
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    runs = []
    for seed in ("1", "2"):
        cwd = tmp_path / seed
        cwd.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")]
                                if p]))
        runs.append((cwd, subprocess.Popen(
            [sys.executable, "-c", HASH_SEED_RUN], cwd=cwd, env=env,
            stdout=subprocess.PIPE, text=True)))
    outputs = []
    for cwd, proc in runs:
        stdout, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0
        files = {str(p.relative_to(cwd)): p.read_bytes()
                 for p in sorted(cwd.rglob("*")) if p.is_file()}
        assert len(files) > 10
        *console, address_hash = stdout.splitlines()
        outputs.append((console, files, address_hash))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    assert outputs[0][2] == outputs[1][2]


def test_fuzz_has_no_seed_option(tmp_path):
    # The search makes no random choice, so a seed would change nothing.
    res = CliRunner().invoke(main, ["fuzz", "--preset", PRESET3, "--seed",
                                    "1", "--out", str(tmp_path / "out")])
    assert res.exit_code == 2
    assert "--seed" in res.output
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("field, value", BAD_POLICY_VALUES)
def test_fuzz_rejects_a_policy_override_of_the_wrong_type(tmp_path, field,
                                                          value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": PRESET3,
                               "policy": {field: value}}))
    res = CliRunner().invoke(main, ["fuzz", "--config", str(cfg),
                                    "--out", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert f"field {field} " in res.output
    assert "Traceback" not in res.output
    assert not (tmp_path / "out").exists()


def test_cli_reads_no_environment_variable(tmp_path, monkeypatch):
    # Options come from flags and the config file only; an environment
    # variable named like a click option would otherwise beat the config.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": PRESET3, "budget_mutations": 50}))
    monkeypatch.setenv("MPFUZZ_FUZZ_BUDGET_MUTATIONS", "5")
    monkeypatch.setenv("MPFUZZ_FUZZ_EPSILON", "0.0001")
    out = tmp_path / "out"
    monkeypatch.setattr("sys.argv", ["mpfuzz", "fuzz", "--config", str(cfg),
                                     "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mutations"] == 50
    assert summary["oracle"] == OracleConfig().to_json()


@pytest.mark.parametrize("key, value", [
    ("epsilon", True), ("epsilon", [1]), ("lambda", {"num": 9}),
    ("lambda", False),
])
def test_fuzz_rejects_a_threshold_of_the_wrong_type(tmp_path, key, value):
    # `true` would run at 1 and a list would end in a traceback.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": PRESET3, key: value}))
    out = tmp_path / "out"
    res = CliRunner().invoke(main, ["fuzz", "--config", str(cfg),
                                    "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert f"{key} must be a number" in res.output
    assert "Traceback" not in res.output
    assert not out.exists()


@pytest.mark.parametrize("value, shown", [
    (0.2, "1/5"), (1, "1"), ("9/25", "9/25"),
])
def test_fuzz_takes_a_threshold_number_or_fraction_string(tmp_path, value,
                                                          shown):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": PRESET3, "epsilon": value,
                               "budget_mutations": 5}))
    out = tmp_path / "out"
    res = run_cli("fuzz", "--config", str(cfg), "--out", str(out))
    assert res.exit_code == 0, res.output
    summary = json.loads((out / "summary.json").read_text())
    assert summary["oracle"]["epsilon"] == shown


@pytest.mark.parametrize("config, named", [
    ({"budget_mutation": 10, "seed": 5}, ["budget_mutation", "seed"]),
    ({"policy": {"capacity": 4, "future_qouta": 1}}, ["future_qouta"]),
])
def test_fuzz_rejects_unknown_config_keys(tmp_path, config, named):
    # A misspelt or removed key would otherwise be a silent no-op.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": PRESET3, **config}))
    out = tmp_path / "out"
    res = CliRunner().invoke(main, ["fuzz", "--config", str(cfg),
                                    "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert all(key in res.output for key in named)
    assert "Traceback" not in res.output
    assert not out.exists()


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


def test_compare_runs_the_deterministic_searches_once(tmp_path,
                                                       monkeypatch):
    calls = Counter()
    run_reference, run_baseline = cli.run_reference, cli.run_baseline

    def counted_reference(*args):
        calls["mpfuzz"] += 1
        return run_reference(*args)

    def counted_baseline(kind, *args):
        calls[kind] += 1
        return run_baseline(kind, *args)

    monkeypatch.setattr(cli, "run_reference", counted_reference)
    monkeypatch.setattr(cli, "run_baseline", counted_baseline)
    out = str(tmp_path / "compare.csv")
    res = run_cli("compare", "--preset", "geth-legacy-reduced(6)",
                  "--baselines", "B3,B4", "--repeats", "3",
                  "--budget-mutations", "5000", "--out", out)
    assert res.exit_code == 0
    assert calls == {"mpfuzz": 1, "B4": 1, "B3": 3}
    with open(out, newline="") as f:
        rows = list(csv.reader(f))[1:]
    assert [(r[0], r[3]) for r in rows] == [
        (k, str(seed)) for seed in range(3) for k in ("mpfuzz", "B3", "B4")]


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


# `via_config` is False for flags only, True for a config with
# `budget_mutations` 0, or the budgets a config file gives.
@pytest.mark.parametrize("args, via_config", [
    (["fuzz", "--preset", PRESET3, "--budget-mutations", "-5"], False),
    (["fuzz", "--preset", PRESET3, "--budget-mutations", "0"], False),
    (["fuzz"], True),
    (["compare", "--repeats", "0"], False),
    (["compare", "--budget-mutations", "-1"], False),
    (["fuzz", "--preset", PRESET3, "--budget-seconds", "0"], False),
    (["fuzz", "--preset", PRESET3, "--budget-seconds", "-1"], False),
    (["fuzz", "--preset", PRESET3, "--budget-seconds", "nan"], False),
    (["fuzz"], {"budget_mutations": "10"}),
    (["fuzz"], {"budget_mutations": 10.0}),
    (["fuzz"], {"budget_mutations": True}),
    (["fuzz"], {"budget_seconds": "x"}),
    (["fuzz"], {"budget_seconds": 0}),
    (["fuzz"], {"budget_seconds": -0.5}),
    (["fuzz"], {"budget_seconds": True}),
    (["replay", "--blocks", "-2"], False),
    (["replay", "--txs-per-block", "0"], False),
])
def test_empty_run_is_a_usage_error(tmp_path, args, via_config):
    if args[0] == "replay":
        args = args + [saved_exploit(tmp_path), "--preset",
                       "geth-legacy-reduced(6)"]
    if via_config:
        budgets = via_config if isinstance(via_config, dict) else \
            {"budget_mutations": 0}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": PRESET3, **budgets}))
        args = args + ["--config", str(cfg)]
    out = str(tmp_path / "out")
    res = CliRunner().invoke(main, args + ["--out", out])
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output
    assert not os.path.exists(out)


def test_fuzz_allows_an_unbounded_time_budget(tmp_path):
    out = str(tmp_path / "out")
    res = run_cli("fuzz", "--preset", PRESET3, "--budget-seconds", "inf",
                  "--budget-mutations", "50", "--out", out)
    assert res.exit_code == 0, res.output
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["mutations"] == 50
    assert all(s["stopped_by"] != "seconds"
               for s in summary["mode_stats"].values())


def test_replay_of_zero_blocks(tmp_path):
    out = str(tmp_path / "replay.json")
    res = run_cli("replay", saved_exploit(tmp_path), "--preset",
                  "geth-legacy-reduced(6)", "--blocks", "0", "--out", out)
    assert res.exit_code == 0, res.output
    assert "cost/block=0.0" in res.output
    report = json.load(open(out))
    assert report["blocks"] == 0 and report["series"] == []


def malformed(record, how):
    """The text of an exploit file made from `record` and broken `how`."""
    record = json.loads(json.dumps(record))
    if how == "json":
        return json.dumps(record)[:-1]
    if how == "version":
        record["version"] = 2
    elif how == "missing":
        del record["verdict"]
    elif how == "type":
        record["concrete_txs"][0] = BAD_TX_RECORD
    elif how == "flag":
        record["verdict"]["triggered"] = "false"
    elif how == "verdict-kind":
        record["verdict"]["kind"] = 7
    elif how == "kind":
        record["kind"] = "Locking"
    elif how == "asym":
        record["verdict"]["asym"] = "1/0"
    elif how == "negative-asym":
        record["verdict"]["asym"] = "-3/8"
    elif how == "disagreeing-flags":
        record["verdict"]["damage_ok"] = not record["verdict"]["damage_ok"]
    else:
        record["pattern"] = "XT10"
    return json.dumps(record)


# What the usage error names, for a broken field.
MALFORMED_FIELD = {"type": "field index ", "flag": "field triggered ",
                   "verdict-kind": "field kind ", "kind": "field kind ",
                   "pattern": "field pattern ", "negative-asym": "field asym ",
                   "disagreeing-flags": "field triggered "}


@pytest.mark.parametrize("how", ["json", "version", "missing", "type",
                                 "flag", "verdict-kind", "kind", "asym",
                                 "negative-asym", "disagreeing-flags",
                                 "pattern"])
@pytest.mark.parametrize("command", ["extend", "replay"])
def test_malformed_exploit_file_is_a_usage_error(tmp_path, command, how):
    with open(saved_exploit(tmp_path)) as f:
        record = json.load(f)
    path = tmp_path / "bad.json"
    path.write_text(malformed(record, how))
    args = {
        "extend": ["extend", str(path), "--target-preset",
                   "geth-legacy-reduced(6)"],
        "replay": ["replay", str(path), "--preset", "geth-legacy-reduced(6)"],
    }[command]
    out = str(tmp_path / "out")
    res = CliRunner().invoke(main, args + ["--out", out])
    assert res.exit_code == 2, res.output
    assert "not a valid exploit file" in res.output
    assert MALFORMED_FIELD.get(how, "") in res.output
    assert "Traceback" not in res.output
    assert not os.path.exists(out)

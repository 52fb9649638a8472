"""Benchmark for mpfuzz: fuzzing throughput, mutations to first exploit,
and the cost of each layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload evict-deep --seed 1 --seconds 28 \
        --trace 0

A workload is a round of operations (see workloads.py).  Rounds are
timed, one after another, while one more round still fits in
``--seconds``.  When they end, the first round's outputs are checked apart
from the program (check.py), and every later round must repeat them
exactly.  Timings are means over the rounds: on a shared machine the
speed shifts in phases lasting seconds, and a mean over the whole run
follows them more steadily than the median of a few rounds.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` untraced and traced rounds
alternate, and it holds the per-layer metrics of the traced rounds, whose
spans are also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
# Set-up is timed this many times before the first round and after each
# timed round, so its samples spread over the run.
SETUP_SAMPLES = 3

sys.path.insert(0, SRC)

from workloads import LAMBDA, SPECS  # noqa: E402  (imports no mpfuzz)


def _mpfuzz_modules():
    return {n: m for n, m in sys.modules.items()
            if n == "mpfuzz" or n.startswith("mpfuzz.")}


def setup(spec):
    """Import mpfuzz afresh and resolve the workload's presets and oracle
    settings: the work ``setup_s`` times.  Returns (seconds, package,
    policies, oracle config)."""
    for name in _mpfuzz_modules():
        del sys.modules[name]
    t0 = time.perf_counter()
    mp = importlib.import_module("mpfuzz")
    policies = [mp.policy_preset(name) for name in spec.presets]
    cfg = mp.OracleConfig(epsilon=spec.epsilon, lam=LAMBDA)
    return time.perf_counter() - t0, mp, policies, cfg


def setup_samples(spec, count):
    """Time ``count`` set-ups, then put back the modules the run uses."""
    kept = _mpfuzz_modules()
    times = [setup(spec)[0] for _ in range(count)]
    for name in _mpfuzz_modules():
        del sys.modules[name]
    sys.modules.update(kept)
    return times


class Runner:
    """Issues rounds of a workload; checks their outputs when they end."""

    def __init__(self, spec, ops):
        self.spec = spec
        self.ops = ops
        self.first_results = None
        self.rounds = []  # per round: per op, fingerprint or exception

    def round(self):
        """Run every op once; return its seconds."""
        results = []
        t0 = time.perf_counter()
        for op in self.ops:
            try:
                results.append(op.run())
            except Exception as exc:  # an op that raises has failed
                results.append(exc)
        wall = time.perf_counter() - t0
        if self.first_results is None:
            self.first_results = results
        self.rounds.append([r if isinstance(r, Exception) else
                            op.fingerprint(r)
                            for op, r in zip(self.ops, results)])
        return wall

    def finish(self):
        """Check the first round's outputs apart from the program, and
        every later round against them.  Returns (correct, attempted,
        failed, mutations per round, mutations to first exploit)."""
        errors = []

        def error(label, err):
            kind = type(err).__name__ + ": " if isinstance(err, Exception) \
                else ""
            msg = f"{label}: {kind}{err}"
            if msg not in errors:
                errors.append(msg)
                print(f"FAILED {msg}", file=sys.stderr)

        checked = []  # per op: (fingerprint, summary), or None if failed
        for op, res, fp in zip(self.ops, self.first_results, self.rounds[0]):
            try:
                if isinstance(res, Exception):
                    raise res
                checked.append((fp, op.check(res)))
            except Exception as exc:
                error(op.label, exc)
                checked.append(None)
        self.first_results = None
        correct = True
        failed = 0
        mutations, firsts = [], set()
        for fps in self.rounds:
            summaries = []  # None for an op that failed
            for op, fp, ok in zip(self.ops, fps, checked):
                if ok is None or isinstance(fp, Exception):
                    if ok is not None:
                        error(op.label, fp)
                    summaries.append(None)
                elif fp != ok[0]:
                    error(op.label, "output differs from the first round's")
                    summaries.append(None)
                else:
                    summaries.append(ok[1])
            failed += summaries.count(None)
            mutations.append(sum(s["mutations"] for s in summaries if s))
            try:
                firsts.add(self.spec.round_check(summaries))
            except Exception as exc:
                correct = False
                error(self.spec.name, exc)
        if len(firsts) != 1:
            correct = False
            error(self.spec.name, f"mutations to first differ: {firsts}")
        return (correct, len(self.rounds) * len(self.ops), failed,
                mutations, min(firsts, default=0))


def run_for(seconds, timed_round):
    """Call ``timed_round`` while one more call, as long as the last,
    still ends within ``seconds``."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        timed_round()
        now = time.perf_counter()
        if now + (now - t0) - start > seconds:
            break


def measure(runner, spec, seconds, setup_times):
    walls = []

    def timed_round():
        walls.append(runner.round())
        setup_times.extend(setup_samples(spec, SETUP_SAMPLES))

    run_for(seconds, timed_round)
    correct, attempted, failed, mutations, first = runner.finish()
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_s": (statistics.fmean(walls), "s"),
        "mutations_per_s": (sum(mutations) / sum(walls), "1/s"),
        "mutations_to_first": (first, "count"),
        "peak_rss_mib": (rss_mib, "MiB"),
        # The first sample may include compiling the sources.
        "setup_s": (statistics.fmean(setup_times[1:]), "s"),
    }
    return correct, attempted, failed, metrics


def measure_traced(runner, seconds, trace_path):
    from spans import TIMED_SPANS, Tracer
    tracer = Tracer()
    plain, traced, per_round = [], [], []
    previous = {}

    def counts():
        out = {n: rec[0] for n, rec in tracer.totals().items()}
        out.update(tracer.counters)
        return out

    def timed_pair():
        nonlocal previous
        plain.append(runner.round())
        tracer.install()
        try:
            traced.append(runner.round())
        finally:
            tracer.uninstall()
        now = counts()
        per_round.append({n: v - previous.get(n, 0) for n, v in now.items()})
        previous = now

    run_for(seconds, timed_pair)
    correct, attempted, failed, _, _ = runner.finish()
    if any(c != per_round[0] for c in per_round):
        correct = False
        print("FAILED per-layer counts differ between rounds",
              file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    with open(trace_path, "w") as f:
        json.dump(dict(tracer.dump(), traced_rounds=len(traced)), f,
                  indent=1)
        f.write("\n")

    once = per_round[0]
    n = len(traced)
    totals = tracer.totals()
    metrics = {}
    for name in TIMED_SPANS:
        _, secs, self_s = totals.get(name, [0, 0.0, 0.0])
        metrics[f"{name}.calls"] = (once.get(name, 0), "count")
        metrics[f"{name}.s"] = (secs / n, "s")
        metrics[f"{name}.self_s"] = (self_s / n, "s")

    def ratio(num, den):
        return once.get(num, 0) / once[den] if once.get(den) else 0.0

    metrics["mempool.admit_mut.admitted_ratio"] = (
        ratio("mempool.admit_mut.admitted", "mempool.admit_mut"), "ratio")
    metrics["fuzzer.corpus_add.calls"] = (
        once.get("fuzzer.corpus_add", 0), "count")
    metrics["fuzzer.kept_ratio"] = (
        ratio("fuzzer.corpus_add", "fuzzer.run_fuzzer.mutations"), "ratio")
    for name in ("symbolic.enumerate_mutations.candidates",
                 "oracle.check_eviction.triggered"):
        metrics[name] = (once.get(name, 0), "count")
    metrics["trace.overhead_s"] = (
        statistics.fmean(traced) - statistics.fmean(plain), "s")
    if tracer.missing:
        print(f"not traced (not found): {', '.join(tracer.missing)}",
              file=sys.stderr)
    return correct, attempted, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mpfuzz", "__init__.py")):
        print(f"no mpfuzz sources under {SRC}", file=sys.stderr)
        return 2

    spec = SPECS[args.workload]
    setup_times = setup_samples(spec, SETUP_SAMPLES)
    _, mp, policies, cfg = setup(spec)
    if not os.path.samefile(os.path.dirname(mp.__file__),
                            os.path.join(SRC, "mpfuzz")):
        print(f"mpfuzz imported from {mp.__file__}", file=sys.stderr)
        return 2
    if cfg.epsilon != spec.epsilon or cfg.lam != LAMBDA:
        print("oracle settings were not taken as given", file=sys.stderr)
        return 2
    runner = Runner(spec, spec.build(policies, cfg, args.seed))
    if args.trace:
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        correct, attempted, failed, metrics = measure_traced(
            runner, args.seconds, path)
    else:
        correct, attempted, failed, metrics = measure(
            runner, spec, args.seconds, setup_times)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

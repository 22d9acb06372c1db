"""Seeded end-to-end benchmark of the corec command line.

    python3 perfbench/run.py --workload solve-deep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --compare OLD.json NEW.json

One process, one thread, one client in a closed loop: each op is one
in-process `corec.cli.main(argv)` call on files generated from the seed,
timed from the call to its return, and its stdout is checked against the
answer known from the input's construction (gen.py, oracles.py).  Ops run in
rounds: every op of the workload once (or its `repeat` times) in a fixed
seeded order, and the timed phase ends at the round boundary nearest to
`--seconds`.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs half the time
untraced (size-ladder timings and the untraced op rate) and half traced
(tracing.py), and prints the per-layer metrics.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  A run record
with each op's stdout digest goes to .perfbench/records/ under the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import gen
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5

END_TO_END = [
    ("setup_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"), ("ops_per_s", "1/s"),
    ("ok_ratio", "ratio"), ("decided_ratio", "ratio"), ("peak_rss_mb", "MB"),
]
# (span name, [(count key, metric suffix, unit)]); each also has .self_s
LAYERS = [
    ("cli.main", []),
    ("cli.parse", []),
    ("cli.emit", [("out_bytes", "out_bytes", "B/op")]),
    ("solver.solve", [("out_states", "out_states", "count/op")]),
    ("solver.decompose", []),
    ("rtree.minimize", [("calls", "calls", "count/op"), ("in_states", "in_states", "count/op"),
                        ("out_states", "out_states", "count/op")]),
    ("rtree.bisim_equal", []),
    ("rtree.cut", [("calls", "calls", "count/op"), ("nodes", "nodes", "count/op")]),
    ("presentation.equiv_upto", []),
    ("presentation.tree_equiv", [("calls", "calls", "count/op"), ("spent", "spent", "count/op")]),
    ("presentation.kernel", [("terms", "terms", "count/op")]),
    ("checker.sweep", [("space", "space", "count/op")]),
    ("bench.count", []),
]


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric, in BENCHMARK.json order, with its unit."""
    out = []
    for layer, counts in LAYERS:
        out.append((f"{layer}.self_s", "s/op"))
        out += [(f"{layer}.{suffix}", unit) for _, suffix, unit in counts]
    out += [("rtree.minimize.shrink", "ratio"), ("presentation.tree_equiv.decided_ratio", "ratio"),
            ("checker.sweep.space_per_s", "1/s"), ("trace.overhead_ratio", "ratio")]
    for workload in gen.WORKLOADS:
        for label, sizes in gen.LADDERS[workload].items():
            out += [(f"{workload}.{label}.n{n}.p50_ms", "ms") for n in sizes]
            if len(sizes) > 1:
                out.append((f"{workload}.{label}.growth", "log2"))
    return out


def require_sources() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "corec", "cli.py")):
        raise SystemExit(f"error: no corec sources under {os.path.join(ROOT, 'src')}")


def import_corec():
    """Import corec from the checkout afresh; returns (corec.cli, corec)."""
    if sys.path[0] != os.path.join(ROOT, "src"):
        sys.path.insert(0, os.path.join(ROOT, "src"))
    for name in [m for m in sys.modules if m == "corec" or m.startswith("corec.")]:
        del sys.modules[name]
    return importlib.import_module("corec.cli"), importlib.import_module("corec")


class Runner:
    """Runs ops, checks them, and keeps per-op times, verdicts and digests."""

    def __init__(self, main) -> None:
        self.main = main
        self.tracer: tracing.Tracer | None = None
        self.executed: list[str] = []  # op name per execution, index = op id
        self.record: dict[str, dict] = {}

    def run(self, op: gen.Op) -> tuple[float, str | None, str]:
        """One call; returns (seconds, failure reason or None, verdict word)."""
        out, err = io.StringIO(), io.StringIO()
        exc = None
        span = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if self.tracer is not None:
                span = self.tracer.begin_op(len(self.executed))
            t0 = perf_counter()
            try:
                code = self.main(op.argv)
            except SystemExit as e:
                code = e.code
            except Exception as e:  # any traceback is a failed op, not a crash of the benchmark
                code, exc = None, e
            t1 = perf_counter()
            if span is not None:
                span[1], span[2] = t0, t1
                self.tracer.end_op()
        self.executed.append(op.name)
        stdout = out.getvalue()
        verdict = ""
        if exc is not None:
            failure = f"raised {type(exc).__name__}: {exc}"
        elif code in (2, 3):
            failure = f"exit {code}: {err.getvalue().strip()[:200]}"
        else:
            failure = None
            try:
                verdict = op.check(stdout)
            except Exception as e:  # a reader tripping on malformed output is a wrong output
                failure = f"wrong output: {type(e).__name__}: {e}"
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        rec = self.record.setdefault(op.name, {
            "label": op.label, "size": op.size,
            "argv": [os.path.basename(a) if os.sep in a else a for a in op.argv],
            "sha256": digest, "code": code, "verdict": verdict, "runs": 0,
            "failures": 0, "digest_changes": 0, "first_failure": None, "ms": [],
        })
        rec["runs"] += 1
        rec["ms"].append((t1 - t0) * 1000)
        rec["digest_changes"] += digest != rec["sha256"]
        if failure is not None:
            rec["failures"] += 1
            rec["first_failure"] = rec["first_failure"] or failure
        return t1 - t0, failure, verdict


def schedule(workload: gen.Workload, seed: int) -> list[gen.Op]:
    ops = [op for op in workload.ops for _ in range(op.repeat)]
    random.Random(f"order:{seed}").shuffle(ops)
    return ops


# The host's speed drifts by a fifth or more within tens of seconds, for
# all code alike (process CPU time drifts with wall time).  A fixed
# pure-Python loop, timed every REFERENCE_EVERY_S between ops, measures that
# speed; each end-to-end time is scaled by REFERENCE_MS over the loop's
# median time within REFERENCE_WINDOW_S of it, which cancels most of the
# drift.  Raw figures are printed beside the scaled ones.
REFERENCE_MS = 3.0
REFERENCE_EVERY_S = 0.1
REFERENCE_WINDOW_S = 1.0


def reference_loop() -> float:
    """Milliseconds for a fixed amount of tuple, dict and list work."""
    n = 256
    steps = [(i % 3, ((i + 1) % n, (i * 7) % n)) for i in range(n)]
    t0 = perf_counter()
    block = [0] * n
    for _ in range(80):
        remap: dict = {}
        block = [remap.setdefault((s, block[a], block[b]), len(remap)) for s, (a, b) in steps]
    return (perf_counter() - t0) * 1000


def speed_factors(at: list[float], reference: list[tuple[float, float]]) -> list[float]:
    """REFERENCE_MS over the median reference time near each moment in `at`."""
    times = [t for t, _ in reference]
    out = []
    for t in at:
        lo = bisect.bisect_left(times, t - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(times, t + REFERENCE_WINDOW_S)
        if hi - lo < 3:
            near = sorted(range(len(times)), key=lambda i: abs(times[i] - t))[:3]
            window = [reference[i][1] for i in near]
        else:
            window = [ms for _, ms in reference[lo:hi]]
        out.append(REFERENCE_MS / statistics.median(window))
    return out


def _reference_sample(reference: list) -> None:
    reference.append((perf_counter(), reference_loop()))


def timed_phase(runner: Runner, ops: list[gen.Op], seconds: float) -> dict:
    """Whole rounds until the round boundary nearest to `seconds`.

    Each sample is (op, seconds in the call, seconds from the call to the
    end of its check, speed factor); `elapsed` sums the latter, leaving out
    garbage collection between ops and the reference loop.
    """
    calls: list[tuple[gen.Op, float, float, float]] = []  # op, start, call s, wall s
    reference: list[tuple[float, float]] = []
    _reference_sample(reference)
    failed = decided = 0
    rounds = 0
    last = perf_counter()
    while True:
        for op in ops:
            # Each CLI command normally runs in a fresh process; collecting the
            # garbage of earlier ops keeps one op from paying for another's.
            gc.collect()
            t = perf_counter()
            dt, failure, verdict = runner.run(op)
            failed += failure is not None
            decided += failure is None and verdict != "unknown"
            calls.append((op, t, dt, perf_counter() - t))
            if perf_counter() - last >= REFERENCE_EVERY_S:
                _reference_sample(reference)
                last = perf_counter()
        rounds += 1
        elapsed = sum(wall for *_, wall in calls)
        if elapsed + elapsed / rounds / 2 >= seconds:
            break
    _reference_sample(reference)
    factors = speed_factors([t for _, t, _, _ in calls], reference)
    samples = [(op, dt, wall, f) for (op, _, dt, wall), f in zip(calls, factors)]
    return {"samples": samples, "failed": failed, "decided": decided,
            "rounds": rounds, "elapsed": elapsed}


def scaled_rate(phase: dict) -> float:
    """Ops per second of the phase at reference speed."""
    return len(phase["samples"]) / sum(wall * f for _, _, wall, f in phase["samples"])


def setup(workload_name: str, seed: int, workdir: str):
    """Import corec, generate inputs and warm up once per command; SETUP_REPEATS times.

    Returns the last import's (corec.cli, corec), the workload, and per
    repeat (seconds, speed factor).
    """
    reference: list[tuple[float, float]] = []
    starts, times = [], []
    for rep in range(SETUP_REPEATS):
        _reference_sample(reference)
        t0 = perf_counter()
        cli, corec = import_corec()
        repdir = os.path.join(workdir, f"rep{rep}")
        workload = gen.build(workload_name, seed, repdir)
        warm = Runner(cli.main)
        first: dict[str, gen.Op] = {}
        for op in workload.ops:
            if op.label not in first or op.size < first[op.label].size:
                first[op.label] = op
        for op in first.values():
            warm.run(op)  # a failing op is counted in the timed phase
        starts.append(t0)
        times.append(perf_counter() - t0)
        if rep < SETUP_REPEATS - 1:
            shutil.rmtree(repdir)
    _reference_sample(reference)
    return cli, corec, workload, list(zip(times, speed_factors(starts, reference)))


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]


def ladder(workload: gen.Workload, samples) -> dict[str, float]:
    by: dict[tuple[str, int], list[float]] = {}
    for op, dt, _, f in samples:
        by.setdefault((op.label, op.size), []).append(dt * f * 1000)
    out = {}
    for label, sizes in gen.LADDERS[workload.name].items():
        p50 = {n: statistics.median(by[(label, n)]) for n in sizes}
        for n in sizes:
            out[f"{workload.name}.{label}.n{n}.p50_ms"] = p50[n]
        if len(sizes) > 1:
            out[f"{workload.name}.{label}.growth"] = math.log2(p50[sizes[-1]] / p50[sizes[-2]])
    return out


def layer_metrics(layers: dict, n_ops: int) -> dict[str, float]:
    out = {}
    for layer, counts in LAYERS:
        row = layers.get(layer, {})
        out[f"{layer}.self_s"] = row.get("self_s", 0.0) / n_ops
        for key, suffix, _ in counts:
            out[f"{layer}.{suffix}"] = row.get(key, 0) / n_ops
    mini = layers.get("rtree.minimize", {})
    out["rtree.minimize.shrink"] = mini["in_states"] / mini["out_states"] if mini else 0.0
    teq = layers.get("presentation.tree_equiv", {})
    out["presentation.tree_equiv.decided_ratio"] = teq["decided"] / teq["calls"] if teq else 0.0
    sweep = layers.get("checker.sweep", {})
    out["checker.sweep.space_per_s"] = sweep["space"] / sweep["self_s"] if sweep else 0.0
    return out


def run_workload(args) -> int:
    workdir = os.path.join(STATE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    records = os.path.join(STATE, "records")
    os.makedirs(records, exist_ok=True)
    try:
        cli, corec, workload, setup_reps = setup(args.workload, args.seed, workdir)
        runner = Runner(cli.main)
        ops = schedule(workload, args.seed)
        lines = []
        if args.trace:
            plain = timed_phase(runner, ops, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install(corec)
            runner.tracer = tracer
            try:
                traced = timed_phase(runner, ops, args.seconds / 2)
            finally:
                tracer.uninstall()
            n_traced = len(traced["samples"])
            tracer_ops = runner.executed
            layers, gap = tracing.layer_table(tracer.spans)
            nested = tracing.nested(tracer.spans)
            metrics = {name: 0.0 for name, _ in per_layer_names()}
            metrics.update(layer_metrics(layers, n_traced))
            metrics.update(ladder(workload, plain["samples"]))
            metrics["trace.overhead_ratio"] = scaled_rate(traced) / scaled_rate(plain)
            phases = [plain, traced]
            units = dict(per_layer_names())
            traced_time = sum(dt for _, dt, _, _ in traced["samples"])
            lines.append(f"# per-layer table: {args.workload}, seed {args.seed}, "
                         f"{n_traced} traced ops in {traced['rounds']} rounds, self time per op")
            for layer, _ in LAYERS:
                row = layers.get(layer)
                if row:
                    lines.append(f"#   {layer:26s} {row['self_s'] / n_traced * 1000:10.3f} ms/op "
                                 f"{100 * row['self_s'] / traced_time:6.2f}%  calls {row['calls']}")
            lines.append(f"#   layer self times + bench.count sum to op time within {gap:.2e} s; "
                         f"spans nested: {nested}")
            ok_trace = gap < 1e-6 and nested
            tracer.write(os.path.join(records, f"{args.workload}-seed{args.seed}-spans.json"),
                         tracer_ops)
        else:
            phase = timed_phase(runner, ops, args.seconds)
            phases = [phase]
            n = len(phase["samples"])
            raw_ms = sorted(dt * 1000 for _, dt, _, _ in phase["samples"])
            ms = sorted(dt * f * 1000 for _, dt, _, f in phase["samples"])
            metrics = {
                "setup_s": statistics.median(s * f for s, f in setup_reps),
                "op_p50_ms": statistics.median(ms),
                "op_p90_ms": quantile(ms, 90),
                "ops_per_s": scaled_rate(phase),
                "ok_ratio": (n - phase["failed"]) / n,
                "decided_ratio": phase["decided"] / n,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = dict(END_TO_END)
            lines.append(f"# {args.workload}, seed {args.seed}: {n} ops in {phase['rounds']} rounds; "
                         f"p90 has {n - math.ceil(0.9 * n)} samples above it")
            lines.append(
                f"# unscaled: setup_s={statistics.median(s for s, _ in setup_reps):.4g} "
                f"op_p50_ms={statistics.median(raw_ms):.4g} op_p90_ms={quantile(raw_ms, 90):.4g} "
                f"ops_per_s={n / phase['elapsed']:.4g}; speed factor median "
                f"{statistics.median(f for *_, f in phase['samples']):.4f}")
            ok_trace = True
        attempted = sum(len(p["samples"]) for p in phases)
        failed = sum(p["failed"] for p in phases)
        for name, rec in runner.record.items():
            if rec["failures"]:
                lines.append(f"# FAILED {name}: {rec['failures']}/{rec['runs']}: {rec['first_failure']}")
        for name in metrics:
            lines.append(f"{name:44s} {metrics[name]:14.6g} {units[name]}")
        scaled: dict[str, list[float]] = {}
        for p in phases:
            for op, dt, _, f in p["samples"]:
                scaled.setdefault(op.name, []).append(dt * f * 1000)
        for name, rec in runner.record.items():
            rec["p50_ms"] = statistics.median(rec.pop("ms"))
            rec["p50_scaled_ms"] = statistics.median(scaled[name])
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "setup_s": [s for s, _ in setup_reps], "ops": runner.record,
        }
        with open(os.path.join(records, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
                  "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    result = {
        "correct": failed == 0 and ok_trace,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    rows = []
    for name in gen.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, last))
        print(proc.stdout.rstrip())
    print(f"\n{'workload':12s} {'metric':44s} {'value':>14s} unit")
    for name, last in rows:
        print(f"{name:12s} {'attempted/failed':44s} {last['attempted']:>8d}/{last['failed']:<5d} "
              f"correct={last['correct']}")
        for metric, v in last["metrics"].items():
            print(f"{name:12s} {metric:44s} {v['value']:14.6g} {v['unit']}")
    return 0


def compare(old_path: str, new_path: str) -> int:
    """List the ops whose stdout bytes differ between two run records (a report, not a gate)."""
    with open(old_path, encoding="utf-8") as f:
        old = json.load(f)["ops"]
    with open(new_path, encoding="utf-8") as f:
        new = json.load(f)["ops"]
    changed = [n for n in old if n in new and old[n]["sha256"] != new[n]["sha256"]]
    for n in changed:
        print(f"changed  {n}: {old[n]['sha256'][:12]} -> {new[n]['sha256'][:12]}")
    for n in sorted(set(old) ^ set(new)):
        print(f"{'only old' if n in old else 'only new'} {n}")
    print(f"{len(changed)} of {len(set(old) & set(new))} common ops changed their output bytes")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(gen.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    require_sources()
    if args.selftest:
        import selftest
        cli, _ = import_corec()
        return selftest.run(cli.main, os.path.join(STATE, "selftest"))
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

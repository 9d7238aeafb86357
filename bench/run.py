"""Seeded benchmark of the quiddity package: one workload per run.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Imports the package from ``src/`` next to this directory, checks the
reference computations against brute force, times the set-up (import plus
seeded input generation) several times, then runs whole rounds of the
workload's operations until ``--seconds`` have passed, checking every
output. A short fixed loop, timed between every two timed steps, measures
the machine's current speed. The gated times are wall times rescaled, by
the median of those loops over each round (or over the set-ups), to the
speed at which the loop takes ``CAL_REF_S`` (see README, "Noise").
With ``--trace 1`` it then runs each operation once more untraced
and once traced, and reports per-layer figures instead of end-to-end ones.
The last line of standard output is one JSON object; the lines above it
give the workload's figures under their descriptive names.
"""

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import reference
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 25
STARTUP_REPEATS = 5
CAL_ITERATIONS = 2000
CAL_REF_S = 0.0015  # the calibration loop's time at reference speed; fixed for good


def calibration_s():
    """Wall time of a fixed pure-Python loop of the kind the package runs.

    The collector is off during the loop, so that a collection of the
    objects the package left behind is not charged to the machine's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        seen = {}
        acc = 0
        for i in range(CAL_ITERATIONS):
            cell = frozenset((i & 63, (i * 7) & 63, i % 5))
            seen[cell] = seen.get(cell, 0) + 1
            acc = (acc * 3 + len(cell)) % 1000003
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Calibration loops timed before and after each of a stretch of timed steps."""

    def __init__(self):
        self.samples = [calibration_s()]

    def sample(self):
        self.samples.append(calibration_s())

    def scale(self):
        """Reference seconds per wall second over the stretch."""
        return CAL_REF_S / statistics.median(self.samples)


def import_package():
    """Import quiddity afresh from SRC, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "quiddity" or m.startswith("quiddity.")]:
        del sys.modules[name]
    q = importlib.import_module("quiddity")
    importlib.import_module("quiddity.cli")
    if Path(q.__file__).resolve().parent != SRC / "quiddity":
        raise ImportError(f"quiddity was imported from {q.__file__}, not from {SRC}")
    return q


class Stats:
    """Figures of the untraced rounds, from each operation's median over the rounds.

    ``op_s`` and the figures built on it are in reference seconds;
    ``op_wall_s`` and ``round_wall_s`` are plain wall time.
    """

    def __init__(self, records):
        seconds, wall, work, self.group = defaultdict(list), defaultdict(list), defaultdict(list), {}
        for op, s, w, scale in records:
            seconds[op.label].append(s * scale)
            wall[op.label].append(s)
            work[op.label].append(w)
            self.group[op.label] = op.group
        self.speed = statistics.median(scale for _, _, _, scale in records)
        self.op_s = {k: statistics.median(v) for k, v in seconds.items()}
        self.op_wall_s = {k: statistics.median(v) for k, v in wall.items()}
        self.op_work = {k: statistics.median(v) for k, v in work.items()}
        self.round_s = sum(self.op_s.values())
        self.round_wall_s = sum(self.op_wall_s.values())
        self.op_p50_ms = 1000 * statistics.median(self.op_s.values())

    def rate(self, group=None):
        """Work per second over one group of operations, or over all of them."""
        ops = [k for k, g in self.group.items() if group in (None, g)]
        return sum(self.op_work[k] for k in ops) / sum(self.op_s[k] for k in ops)


class Runner:
    """Counts operations attempted, failed and answered wrongly."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self._reported = set()

    def run_ops(self, ops, records):
        """Run each operation once, timed, and check its output outside the timing.

        Appends (operation, wall seconds, work, reference seconds per wall
        second over this call) for each operation.
        """
        speed = Speed()
        done = []
        for op in ops:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # an operation that cannot complete is counted, not fatal
                done.append((op, time.perf_counter() - t0, 0))
                speed.sample()
                self.failed += 1
                self._report(op, f"failed: {exc!r}")
                continue
            seconds = time.perf_counter() - t0
            speed.sample()
            try:
                ok = op.check(result)
            except Exception:
                ok = False
                self._report(op, traceback.format_exc())
            done.append((op, seconds, op.work(result) if ok else 0))
            if not ok:
                self.failed += 1
                self.wrong += 1
                self._report(op, "wrong answer")
        scale = speed.scale()
        records.extend((op, seconds, work, scale) for op, seconds, work in done)

    def _report(self, op, message):
        if op.label not in self._reported:
            self._reported.add(op.label)
            print(f"{op.label}: {message}", file=sys.stderr)


def startup_ms(env):
    """Median wall time of a fresh interpreter that imports quiddity.cli and exits."""
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import quiddity.cli"], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


def per_layer(totals, extra):
    calls, self_s, under, counts = totals["calls"], totals["self_s"], totals["under"], totals["counts"]

    def ratio(a, b):
        return a / b if b else 0.0

    yielded = counts["dissections.enumerate_dissections.yielded"]
    built = under["dissections.Dissection", "dissections.enumerate_dissections"]
    trial_inv_a = under["surgery.inv_a", "surgery.realize_triangulation"]
    leaves = counts["enumeration.solutions_pm_identity.leaves"]
    m = {
        "algebra.m_product.calls": (calls["algebra.m_product"], "count"),
        "algebra.m_product.entries": (counts["algebra.m_product.entries"], "count"),
        "algebra.m_product_mod.calls": (calls["algebra.m_product_mod"], "count"),
        "algebra.is_gamma2_solution.calls": (calls["algebra.is_gamma2_solution"], "count"),
        "dissections.enumerate_dissections.yielded": (yielded, "count"),
        "dissections.enumerate_dissections.sets_built": (built, "count"),
        "dissections.enumerate_dissections.useful_ratio": (ratio(yielded, built), "ratio"),
        "dissections.cells.calls": (calls["dissections.cells"], "count"),
        "dissections.validate.calls": (calls["dissections.validate"], "count"),
        "dissections.validate.diagonal_pairs": (counts["dissections.validate.diagonal_pairs"], "count"),
        "surgery.reduce_to_base.calls": (calls["surgery.reduce_to_base"], "count"),
        "surgery.reduce_to_base.steps": (
            under["surgery.inv_a", "surgery.reduce_to_base"] + under["surgery.inv_b", "surgery.reduce_to_base"],
            "count",
        ),
        "surgery.inv_a.calls": (calls["surgery.inv_a"], "count"),
        "surgery.realize_triangulation.pivot_ratio": (
            ratio(counts["surgery.realize_triangulation.pivots"], trial_inv_a),
            "ratio",
        ),
        "frieze.build_frieze.calls": (calls["frieze.build_frieze"], "count"),
        "frieze.build_frieze.entries": (counts["frieze.build_frieze.entries"], "count"),
        "enumeration.solutions_gamma2.solutions": (counts["enumeration.solutions_gamma2.solutions"], "count"),
        "enumeration.solutions_pm_identity.leaves": (leaves, "count"),
        "enumeration.solutions_pm_identity.useful_ratio": (
            ratio(counts["enumeration.solutions_pm_identity.solutions"], leaves),
            "ratio",
        ),
    }
    for label in (
        "algebra.m_product",
        "algebra.m_product_mod",
        "algebra.in_principal_congruence",
        "algebra.is_gamma2_solution",
        "dissections.enumerate_dissections",
        "dissections.cells",
        "dissections.classify",
        "dissections.quiddity_mod2",
        "dissections.quiddity_cc",
        "dissections.validate",
        "surgery.reduce_to_base",
        "surgery.inv_a",
        "algebra.as_mod2_seq",
        "surgery.realize_dissection",
        "surgery.realize_triangulation",
        "frieze.build_frieze",
        "frieze.validate_frieze",
        "frieze.coxeter_row_check",
        "enumeration.theorem_sweep",
        "enumeration.solutions_gamma2",
        "enumeration.solutions_pm_identity",
        "cli.main",
    ):
        m[f"{label}.self_s"] = (self_s[label], "s")
    m.update(extra)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quiddity" / "__init__.py").is_file():
        print(f"run.py: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for var in [k for k in os.environ if k.startswith("QUIDDITY_")]:
        del os.environ[var]  # the program's caps stay at their defaults
    reference.self_test()

    workload = workloads.WORKLOADS[args.workload]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_speed = Speed()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            q = import_package()
            inputs = workload.generate(random.Random(args.seed), workdir)
            setup_times.append(time.perf_counter() - t0)
            setup_speed.sample()
        ops = workload.build(q, inputs, env)

        runner = Runner()
        records = []
        start = time.perf_counter()
        rounds = 0
        while rounds == 0 or time.perf_counter() - start < args.seconds:
            runner.run_ops(ops, records)
            rounds += 1
        stats = Stats(records)

        if args.trace:
            # cli's commands run in child processes, out of the wrappers' reach;
            # its traced round calls quiddity.cli.main in this process instead
            traced_ops = workload.in_process_ops(q, inputs) if args.workload == "cli" else ops
            # each operation runs untraced and then traced, back to back, so
            # that drift in machine speed cancels out of the overhead
            plain, traced = [], []
            tracer = tracing.Tracer()
            for op in traced_ops:
                runner.run_ops([op], plain)
                tracer.install()
                try:
                    runner.run_ops([op], traced)
                finally:
                    tracer.uninstall()
            is_cli = args.workload == "cli"
            extra = {
                "trace.overhead_s": (sum(r[1] for r in traced) - sum(r[1] for r in plain), "s"),
                "cli.startup_ms": (startup_ms(env) if is_cli else 0.0, "ms"),
            }
            for name in workloads.CLI_COMMANDS:
                extra[f"cli.{name}.wall_ms"] = (1000 * stats.op_wall_s[name] if is_cli else 0.0, "ms")
            metrics = per_layer(tracer.layer_totals(), extra)
            tracer.write(OUT / f"{args.workload}.spans.json.gz")
        else:
            named = {
                "setup_s": (statistics.median(setup_times) * setup_speed.scale(), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "round_s": (stats.round_s, "s"),
            }
            metrics = dict(named)
            named.update(workload.named_metrics(stats))
            named["round_wall_s"] = (stats.round_wall_s, "s")
            named["speed"] = (stats.speed, "ref_s/s")
            for name, (value, unit) in named.items():
                print(f"{args.workload} {name} = {value:.6g} {unit}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        f"{args.workload}: {rounds} rounds, {runner.attempted} operations, "
        f"{runner.failed} failed, {runner.wrong} wrong"
    )
    print(
        json.dumps(
            {
                "correct": runner.wrong == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

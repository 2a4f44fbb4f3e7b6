#!/usr/bin/env python3
"""focalframe benchmark: four seeded workloads, one client, closed loop.

Run from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Workloads: cli-specs, arclength-focal, unit-frames, synthesis (see
bench/README.md). One client issues one op at a time and starts the
next only when the previous one has finished.

--trace 0 measures the end-to-end metrics: whole passes of the workload's
op schedule (at least three) are run until --seconds have gone by, and
every op is checked against its reference. Before every op a fixed
reference owned by the benchmark is timed (reference.py), and each op's
time is scaled to the host speed at which the reference takes its nominal
time; the unscaled wall times are printed too. --trace 1 runs one fixed
pass untraced and then the same pass traced (the library wrapped from
outside, see spans.py), and reports the per-layer metrics plus the
tracing overhead; a fixed pass makes its counts repeat exactly for a
given seed.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics. The lines before it repeat the metrics for reading,
together with fail_ratio and max_ref_err, which are reported but not
bounded. --smoke runs every workload at a tiny size, traced twice, and
exits non-zero unless every metric is printed with its unit, no op fails
and the traced counts repeat.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
NPROC = len(os.sched_getaffinity(0))
SETUP_REPEATS = 3
SETUP_KERNELS = 5
MIN_PASSES = 3
# Reference times that the reported times are scaled to, close to their
# means on an unloaded 2-vCPU Xeon host with Python 3.11: one
# reference_kernel run, and one spawned reference from spawn to exit.
REF_KERNEL_NOMINAL_S = 0.010
REF_SPAWN_NOMINAL_S = 0.140
# Ops whose reference samples scale one op's time: the op and 5 on each side.
SCALE_WINDOW = 11

# Cap BLAS/OpenMP pools at the core count, for this process (numpy is not
# imported yet) and for every child it starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(int(os.environ.get(_var) or NPROC), NPROC))

NAMES = ("cli-specs", "arclength-focal", "unit-frames", "synthesis")
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
}
CLI_COMMANDS = ("analyze", "focal", "slant", "verify", "synthesize")


def _fail(message: str, code: int = 2) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def _check_layout() -> None:
    if not (SRC / "focalframe" / "__init__.py").is_file():
        _fail(f"no focalframe sources under {SRC}; run from a source checkout")


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "cpu": cpu,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> None:
    """Child side of the in-process set-up measurement.

    Times the import of the library and the generation of the first pass
    of inputs, i.e. everything before the first timed op. Then times the
    reference kernel in the same child, so the set-up time is scaled by
    the host speed that the child itself saw.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import focalframe  # noqa: F401
    import workloads

    wl = workloads.IN_PROCESS[workload](workloads.FULL)
    [wl.make_input(seed, i) for i in range(len(wl.schedule))]
    setup = time.perf_counter() - t0
    kernel = statistics.fmean(reference.isolated_kernel() for _ in range(SETUP_KERNELS))
    print(repr(setup), repr(kernel))


def measure_setup(workload: str, seed: int, repeats: int) -> tuple[float, float]:
    """Median set-up time over ``repeats`` fresh interpreters: (scaled, wall).

    Each sample is scaled by its own reference: the kernel in the probe
    child, or for ``cli-specs`` a spawned reference right before the
    ``import focalframe`` child.
    """
    scaled, wall = [], []
    for _ in range(repeats):
        if workload == "cli-specs":
            ref = reference.spawn_reference()
            env = dict(os.environ, PYTHONPATH=str(SRC))
            t0 = time.perf_counter()
            reference.run_child([sys.executable, "-c", "import focalframe"],
                                env=env).check_returncode()
            setup = time.perf_counter() - t0
            scale = REF_SPAWN_NOMINAL_S / ref
        else:
            probe = reference.run_child(
                [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                 "--workload", workload, "--seed", str(seed)],
                stdout=subprocess.PIPE, text=True)
            probe.check_returncode()
            out = probe.stdout
            setup, kernel = map(float, out.strip().splitlines()[-1].split())
            scale = REF_KERNEL_NOMINAL_S / kernel
        scaled.append(setup * scale)
        wall.append(setup)
    return statistics.median(scaled), statistics.median(wall)


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Loop:
    """One client, one op at a time; collects times, errors and failures.

    With a ``reference`` (a function returning the seconds one reference
    sample took), a sample is taken before every op, so the reference sees
    the host's speed over the same stretch of time as the ops.
    """

    def __init__(self, reference=None) -> None:
        import workloads

        self.check_failed = workloads.CheckFailed
        self.times: list[float] = []
        self.errors: list[float] = []
        self.failures: list[str] = []
        self.ref_times: list[float] = []
        self.reference = reference

    def op(self, run, check) -> None:
        """Time ``run()``; then ``check(result)`` untimed. Failures are kept."""
        if self.reference is not None:
            self.ref_times.append(self.reference())
        t0 = time.perf_counter()
        try:
            result = run()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self.times.append(time.perf_counter() - t0)
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return
        self.times.append(time.perf_counter() - t0)
        try:
            err = check(result)
        except self.check_failed as exc:
            self.failures.append(str(exc))
            return
        if not math.isnan(err):
            self.errors.append(err)

    @property
    def attempted(self) -> int:
        return len(self.times)

    def rate(self) -> float:
        return self.attempted / sum(self.times)

    @classmethod
    def merged(cls, *loops: "Loop") -> "Loop":
        out = cls()
        for loop in loops:
            out.times += loop.times
            out.errors += loop.errors
            out.failures += loop.failures
        return out


def _passes(seconds: float, one_pass) -> int:
    """Run whole passes, at least MIN_PASSES, until the next would mostly overrun."""
    t0 = time.perf_counter()
    done = 0
    while True:
        one_pass(done)
        done += 1
        elapsed = time.perf_counter() - t0
        if done >= MIN_PASSES and elapsed + 0.5 * elapsed / done >= seconds:
            return done


def _in_process_pass(wl, seed: int, loop: Loop, pass_index: int) -> None:
    n = len(wl.schedule)
    for j in range(pass_index * n, (pass_index + 1) * n):
        inp = wl.make_input(seed, j)
        loop.op(lambda: wl.run(inp), lambda out: wl.check(inp, out))


def _cli_pass(cl, loop: Loop, mode: str = "subprocess", tag: str = "out") -> None:
    import workloads

    for op in workloads.CLI_PASS:
        cl.clear(op, tag)
        if mode == "subprocess":
            loop.op(lambda: cl.run_subprocess(op), lambda _: cl.check(op, tag))
        else:
            loop.op(lambda: cl.run_inprocess(op, tag), lambda _: cl.check(op, tag))


def scale_times(times: list[float], refs: list[float], nominal: float) -> list[float]:
    """Each op's time, scaled to the nominal host speed around it.

    The factor is ``nominal`` over the mean reference time of the
    SCALE_WINDOW ops centred on the op (fewer at the ends of the run). A
    window of reference samples is less noisy than the one taken right
    before the op, and unlike one factor for the whole run it follows a
    drift phase that starts or ends within the run (see reference.py).
    """
    half = SCALE_WINDOW // 2
    return [t * nominal / statistics.fmean(refs[max(0, i - half):i + half + 1])
            for i, t in enumerate(times)]


def _p50_p90(times: list[float]) -> tuple[float, float]:
    # The "exclusive" method puts the 90th percentile at rank 0.9 (n + 1),
    # inside the costliest family's cluster for any run length here; the
    # "inclusive" rank 0.9 (n - 1) + 1 slips below it in short runs.
    return statistics.median(times), statistics.quantiles(times, n=10)[8]


def run_end_to_end(name: str, seed: int, seconds: float, size, workdir: Path,
                   setup_repeats: int) -> tuple[Loop, dict, dict]:
    import workloads

    setup_s, wall_setup_s = measure_setup(name, seed, setup_repeats)
    if name == "cli-specs":
        # Ops are fresh interpreters, so the reference is one too.
        loop = Loop(reference.spawn_reference)
        nominal = REF_SPAWN_NOMINAL_S
        cl = workloads.CliSpecs(size, workdir, SRC)
        cl.prepare(seed)
        cl.clear(workloads.CLI_PASS[0])
        Loop().op(lambda: cl.run_subprocess(workloads.CLI_PASS[0]), lambda _: float("nan"))
        passes = _passes(seconds, lambda p: _cli_pass(cl, loop))
        rss = _peak_rss_mb(resource.RUSAGE_CHILDREN)
        unchecked = {}
    else:
        wl = workloads.IN_PROCESS[name](size)
        inp = wl.make_input(seed, workloads.WARMUP_INDEX)
        Loop().op(lambda: wl.run(inp), lambda out: wl.check(inp, out))
        loop = Loop(reference.isolated_kernel)
        nominal = REF_KERNEL_NOMINAL_S
        passes = _passes(seconds, lambda p: _in_process_pass(wl, seed, loop, p))
        rss = _peak_rss_mb(resource.RUSAGE_SELF)
        unchecked = wl.unchecked
    scaled = scale_times(loop.times, loop.ref_times, nominal)
    scaled_p50, scaled_p90 = _p50_p90(scaled)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(scaled) / sum(scaled),
        "op_p50_s": scaled_p50,
        "op_p90_s": scaled_p90,
        "peak_rss_mb": rss,
    }
    scale = nominal / statistics.fmean(loop.ref_times)
    p50, p90 = _p50_p90(loop.times)
    info = {"passes": passes, "samples": loop.attempted,
            "beyond_p90": sum(t > scaled_p90 for t in scaled),
            "host_scale": f"{scale:.4f}", "wall_setup_s": f"{wall_setup_s:.4g}",
            "wall_ops_per_s": f"{loop.rate():.4g}", "wall_op_p50_s": f"{p50:.4g}",
            "wall_op_p90_s": f"{p90:.4g}"}
    info.update((f"unchecked.{k}", f"{v:.4g}") for k, v in unchecked.items())
    return loop, metrics, info


def run_traced(name: str, seed: int, size, workdir: Path) -> tuple[Loop, dict, object, dict]:
    """One fixed pass untraced, then traced.

    Returns every op run, checked; the metrics; the tracer; and the
    workload's unchecked figures.
    """
    import spans
    import workloads

    tracer = spans.Tracer()
    extra: dict[str, float] = {f"cli.main_s.{c}": 0.0 for c in CLI_COMMANDS}
    extra["cli.startup_s"] = 0.0
    untraced, traced = Loop(), Loop()
    unchecked = {}
    if name == "cli-specs":
        cl = workloads.CliSpecs(size, workdir, SRC)
        cl.prepare(seed)
        walls = Loop()
        _cli_pass(cl, walls)
        _cli_pass(cl, untraced, mode="inprocess", tag="inproc")
        for (cmd, _), wall, main in zip(workloads.CLI_PASS, walls.times, untraced.times):
            extra[f"cli.main_s.{cmd}"] += main
            extra["cli.startup_s"] += wall - main
        tracer.install()
        try:
            for i, op in enumerate(workloads.CLI_PASS):
                tracer.new_op(i)
                cl.clear(op, "inproc")
                traced.op(lambda: cl.run_inprocess(op, "inproc"),
                          lambda _: cl.check(op, "inproc"))
        finally:
            tracer.uninstall()
        checked = Loop.merged(walls, untraced, traced)
    else:
        wl = workloads.IN_PROCESS[name](size)
        inp = wl.make_input(seed, workloads.WARMUP_INDEX)
        Loop().op(lambda: wl.run(inp), lambda out: wl.check(inp, out))
        inputs = [wl.make_input(seed, j) for j in range(len(wl.schedule))]
        for inp in inputs:
            untraced.op(lambda: wl.run(inp), lambda out: wl.check(inp, out))
        tracer.install()
        try:
            for i, inp in enumerate(inputs):
                tracer.new_op(i)
                traced.op(lambda: wl.run(inp), lambda out: wl.check(inp, out))
        finally:
            tracer.uninstall()
        checked = Loop.merged(untraced, traced)
        unchecked = wl.unchecked
    metrics = {k: v for k, (v, _) in tracer.layer_metrics().items()}
    metrics.update(extra)
    metrics["trace.untraced_ops_per_s"] = untraced.rate()
    metrics["trace.traced_ops_per_s"] = traced.rate()
    metrics["trace.overhead_ops_per_s"] = traced.rate() - untraced.rate()
    metrics["trace.spans"] = len(tracer.name)
    return checked, metrics, tracer, unchecked


def per_layer_units() -> dict[str, str]:
    import spans

    units = {k: u for k, (_, u) in spans.Tracer().layer_metrics().items()}
    units.update({f"cli.main_s.{c}": "s" for c in CLI_COMMANDS})
    units["cli.startup_s"] = "s"
    units["trace.untraced_ops_per_s"] = "op/s"
    units["trace.traced_ops_per_s"] = "op/s"
    units["trace.overhead_ops_per_s"] = "op/s"
    units["trace.spans"] = "count"
    return units


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def report(name: str, seed: int, seconds: float, trace_on: bool, loop: Loop,
           metrics: dict, units: dict, info: dict, env: dict) -> dict:
    """Print the readable block and return the result object."""
    attempted, failed = loop.attempted, len(loop.failures)
    readable = dict(metrics)
    readable["fail_ratio"] = failed / attempted
    readable["max_ref_err"] = max(loop.errors) if loop.errors else float("nan")
    import workloads

    units = dict(units, fail_ratio="1", max_ref_err=workloads.ERR_UNITS[name])
    print(f"# focalframe benchmark: workload={name} seed={seed} seconds={seconds:g} "
          f"trace={int(trace_on)} client=1 closed-loop")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# run " + " ".join(f"{k}={v}" for k, v in info.items()))
    for key, value in readable.items():
        print(f"{key:40s} {value:.6g} {units[key]}")
    for failure in loop.failures[:20]:
        print(f"# FAILED {failure}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace_on),
              "env": env, "run": info, "readable": readable, "result": result,
              "op_times_s": loop.times, "ref_times_s": loop.ref_times,
              "failures": loop.failures}
    out = WORK / "results" / f"{name}-seed{seed}-trace{int(trace_on)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    return result


def run_one(name: str, seed: int, seconds: float, trace_on: bool, size,
            setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload and return its result object."""
    workdir = WORK / f"run-{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        env = environment()
        if trace_on:
            loop, metrics, tracer, unchecked = run_traced(name, seed, size, workdir)
            units = per_layer_units()
            info = {"passes": 1, "ops_run": loop.attempted, "spans": len(tracer.name),
                    **{f"span_cost_us.{k}": f"{v * 1e6:.3g}"
                       for k, v in tracer.span_cost.items()},
                    **{f"unchecked.{k}": f"{v:.4g}" for k, v in unchecked.items()}}
            # One file pair per workload, overwritten, so repeated runs do
            # not pile up span dumps; the seed is recorded inside.
            tracer.write(WORK / "trace" / f"{name}.npz", seed)
            (WORK / "trace" / f"{name}-functions.json").write_text(
                json.dumps({"seed": seed, "functions": tracer.function_table()}, indent=1) + "\n")
        else:
            loop, metrics, info = run_end_to_end(name, seed, seconds, size, workdir,
                                                 setup_repeats)
            units = END_TO_END
        return report(name, seed, seconds, trace_on, loop, metrics, units, info, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# smoke mode
# ---------------------------------------------------------------------------

def _declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def smoke(seed: int) -> list[str]:
    """Every workload at tiny size: once end to end, twice traced.

    Returns the problems found: a metric missing from, extra to or with
    another unit than BENCHMARK.json declares, a failed op, or traced
    counts that differ between the two traced runs.
    """
    import spans
    import workloads

    problems = []
    for name in NAMES:
        result = run_one(name, seed, 0.0, False, workloads.TINY, setup_repeats=1)
        traced = [run_one(name, seed, 0.0, True, workloads.TINY) for _ in range(2)]
        for res, section in ((result, "end_to_end"), *((r, "per_layer") for r in traced)):
            units = {k: m["unit"] for k, m in res["metrics"].items()}
            if units != _declared(section):
                problems.append(f"{name}: {section} metrics or units differ from BENCHMARK.json")
            if res["failed"]:
                problems.append(f"{name}: {res['failed']} of {res['attempted']} ops failed")
        counts = [{k: r["metrics"][k]["value"] for k in (*spans.COUNT_METRICS, "trace.spans")}
                  for r in traced]
        diff = {k: (counts[0][k], counts[1][k]) for k in counts[0] if counts[0][k] != counts[1][k]}
        if diff:
            problems.append(f"{name}: traced counts differ between runs: {diff}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _check_layout()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    sys.path.insert(0, str(SRC))
    if args.smoke:
        problems = smoke(args.seed)
        for problem in problems:
            print(f"# SMOKE PROBLEM {problem}")
        print(json.dumps({"smoke": "fail" if problems else "ok", "problems": problems}))
        return 1 if problems else 0
    if args.workload is None:
        _fail("--workload is required")
    import workloads

    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), workloads.FULL)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

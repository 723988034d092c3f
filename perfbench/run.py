"""Benchmark of the kelvinasym command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src`` with no build step.  A workload (see ``workloads.py``) is a fixed
sequence of CLI invocations; one pass runs them as a closed loop, one
fresh process at a time, and every artefact is checked by the step's
gate.  Passes repeat until the next one would end after S seconds.

``--trace 0`` reports the end-to-end metrics: the means over passes of
pass wall time and child CPU time, scaled to a reference host speed by
calibration samples taken between invocations (``host_factor``), the
median over passes of peak child RSS, and the median of ``setup_s``, the
time from a fresh interpreter to ``import kelvinasym.cli`` done, sampled
before every pass.  ``--trace 1``
alternates untraced and traced passes (``tracing.py``) and reports the
per-layer metrics, among them the untraced wall time of each long
subcommand (``STAGES``).  The last line of standard output is the result
object; the line before it holds the environment and every pass's
figures.  Children run with KELVINASYM_THREADS and KELVINASYM_KERNEL
removed from their environment, so the default code paths are measured,
and with PYTHONDONTWRITEBYTECODE removed, so imports use bytecode caches.

``--size small`` runs the reduced workloads of the self-test.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import json
import os
import shutil
import statistics
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import tracing
from workloads import WORKLOADS, GateError, Step

ROOT = Path(__file__).resolve().parent.parent
TRACING = Path(__file__).resolve().parent / "tracing.py"
SETUP_SAMPLES_PER_PASS = 2
HARD_LIMIT_S = 170.0

# How long `calibration_sample` takes at the reference host speed: about
# its median on the 2-vCPU Intel Xeon VM the benchmark was tuned on.
REFERENCE_LOOP_S = 0.28

END_TO_END = [
    ("wall_ref_s", "s"),
    ("cpu_ref_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
# Subcommands that take seconds; each gets a per-stage wall time metric,
# which reads 0 on a workload that does not run it.
STAGES = ("lemmas", "poisson", "residual-n3", "expand3", "radial")
PER_LAYER = tracing.PER_LAYER + [(f"{command}_s", "s") for command in STAGES] + [
    ("host.calibration_s", "s"),
    ("trace_overhead_s", "s"),
    ("fail_ratio", "ratio"),
    ("slope_dev", "slope"),
]


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, or it does not import)."""


@dataclass
class Invocation:
    command: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    problem: str | None
    extras: dict = field(default_factory=dict)


@dataclass
class Pass:
    traced: bool
    steps: list[Invocation]
    span_files: list[Path]
    calibration_s: list[float]

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.steps)


# The package's own knobs are removed so the default code paths run, and
# bytecode caching is left on, as it is for an installed package, so every
# timed import reads the caches the first (untimed) import wrote.
_DROPPED_ENV = ("KELVINASYM_THREADS", "KELVINASYM_KERNEL", "PYTHONDONTWRITEBYTECODE")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in _DROPPED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def invoke(argv: list[str], cwd: Path, env: dict, deadline: float) -> tuple[int, float, float, float]:
    """Run one child to completion: (exit code, wall s, CPU s, peak RSS MB).

    The child is killed at `deadline` (a time.monotonic value).
    """
    with open(cwd / "stderr.txt", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def probe_environment(env: dict, work: Path) -> dict:
    """Import the package once (which also compiles it) and describe the setup."""
    code = (
        "import json, sys, numpy, kelvinasym.cli, kelvinasym.radial as radial; "
        "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__, "
        "'kernel': radial.kernel_name()}))"
    )
    try:
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=work, env=env, capture_output=True, text=True, timeout=120
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("importing kelvinasym timed out") from exc
    if done.returncode != 0:
        raise BenchError(f"cannot import kelvinasym from {ROOT / 'src'}: {done.stderr.strip()[-500:]}")
    info = json.loads(done.stdout)
    info["nproc"] = len(os.sched_getaffinity(0))
    return info


def calibration_sample() -> float:
    """Wall time of a fixed pure-Python computation: the host's speed now.

    Integer arithmetic, tuple-keyed dict stores and Fraction sums, the
    kind of work every workload spends its time in.  It runs in this
    process between invocations, never beside one, so it slows nothing
    the benchmark times.
    """
    start = time.perf_counter()
    total = 0
    for i in range(350_000):
        total += i * i
    table = {}
    for i in range(35_000):
        table[(i, i + 1)] = Fraction(i, 7) + Fraction(1, i + 3)
    return time.perf_counter() - start


def measure_setup(env: dict, work: Path, deadline: float) -> list[float]:
    """Wall times from a fresh interpreter to ``import kelvinasym.cli`` done."""
    samples = []
    for _ in range(SETUP_SAMPLES_PER_PASS):
        code, wall, _cpu, _rss = invoke([sys.executable, "-c", "import kelvinasym.cli"], work, env, deadline)
        if code != 0:
            raise BenchError(f"import kelvinasym.cli exited with {code}")
        samples.append(wall)
    return samples


def run_pass(
    steps: list[Step], work: Path, env: dict, seed: int, deadline: float, traced: bool, pass_id: int
) -> Pass:
    """Run the workload's steps once in a fresh directory and gate every artefact.

    A calibration sample is taken before every invocation and after the
    last, so the samples follow the host's speed through the pass.
    """
    pass_dir = work / f"pass{pass_id}"
    pass_dir.mkdir()
    result = Pass(traced=traced, steps=[], span_files=[], calibration_s=[])
    for index, step in enumerate(steps):
        result.calibration_s.append(calibration_sample())
        cli_argv = [step.command, *step.args, "--seed", str(seed), "--out", step.out]
        if traced:
            spans = work / f"spans{pass_id}_{index}.json"
            argv = [sys.executable, str(TRACING), str(spans), str(pass_id), *cli_argv]
            result.span_files.append(spans)
        else:
            argv = [sys.executable, "-m", "kelvinasym.cli", *cli_argv]
        code, wall, cpu, rss = invoke(argv, pass_dir, env, deadline)
        problem, extras = None, {}
        if code != 0:
            lines = (pass_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()
            problem = " | ".join([f"exit code {code}", *lines[-2:]])
        else:
            try:
                extras = step.check(pass_dir)
            except (GateError, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problem = f"gate: {exc}"
        if problem is not None:
            print(f"{step.command} (pass {pass_id}) failed: {problem}", file=sys.stderr)
        result.steps.append(Invocation(step.command, wall, cpu, rss, problem, extras))
    result.calibration_s.append(calibration_sample())
    shutil.rmtree(pass_dir)
    return result


def run_passes(
    steps: list[Step], work: Path, env: dict, seed: int, started: float, seconds: float, trace: bool
) -> tuple[list[Pass], list[float]]:
    """Closed-loop passes until the next would end after `seconds` from `started`.

    Without tracing, set-up samples are taken before every pass, so they
    spread over the run like the passes do.  With tracing, passes
    alternate untraced and traced, and at least one of each runs.
    """
    deadline = started + HARD_LIMIT_S
    passes: list[Pass] = []
    setup: list[float] = []
    longest = 0.0
    while True:
        pass_start = time.monotonic()
        if not trace:
            setup += measure_setup(env, work, deadline)
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(steps, work, env, seed, deadline, traced, len(passes)))
        longest = max(longest, time.monotonic() - pass_start)
        if len(passes) >= (2 if trace else 1) and time.monotonic() + longest > started + seconds:
            return passes, setup


def host_factor(passes: list[Pass]) -> float:
    """REFERENCE_LOOP_S over the run's median calibration sample.

    Multiplying a time measured in this run by it gives the time at the
    reference host speed.
    """
    return REFERENCE_LOOP_S / statistics.median(c for p in passes for c in p.calibration_s)


def end_to_end(passes: list[Pass], setup: list[float]) -> dict[str, float]:
    """Pass times are means over the run at the reference host speed.

    The host's speed swings by up to 2x over tens of seconds to minutes,
    so raw pass times of runs minutes apart spread by more than a bound
    can judge; scaled by `host_factor` they agree far more closely.  The
    mean over the run's passes integrates the run, as the calibration
    samples spread through it do.  The other figures are raw medians.
    """
    med, mean, factor = statistics.median, statistics.fmean, host_factor(passes)
    return {
        "wall_ref_s": factor * mean(p.wall_s for p in passes),
        "cpu_ref_s": factor * mean(sum(s.cpu_s for s in p.steps) for p in passes),
        "setup_s": med(setup),
        "peak_rss_mb": med(max(s.rss_mb for s in p.steps) for p in passes),
    }


def per_layer(passes: list[Pass]) -> dict[str, float]:
    med = statistics.median
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    per_pass = [tracing.layer_metrics([f for f in p.span_files if f.is_file()]) for p in traced]
    values = {name: med(m[name] for m in per_pass) for name, _unit in tracing.PER_LAYER}
    values["host.calibration_s"] = med(c for p in passes for c in p.calibration_s)
    values["trace_overhead_s"] = med(p.wall_s for p in traced) - med(p.wall_s for p in untraced)
    for command in STAGES:
        times = [sum(s.wall_s for s in p.steps if s.command == command) for p in untraced]
        values[f"{command}_s"] = med(times)
    invocations = [s for p in passes for s in p.steps]
    values["fail_ratio"] = sum(s.problem is not None for s in invocations) / len(invocations)
    slopes = [s.extras["slope_dev"] for s in invocations if "slope_dev" in s.extras]
    values["slope_dev"] = med(slopes) if slopes else 0.0
    return values


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Benchmark of the kelvinasym CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "kelvinasym" / "cli.py").is_file():
        print(f"no kelvinasym source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    steps = WORKLOADS[args.workload](args.size)
    started = time.monotonic()
    scratch_root = ROOT / ".perfbench_work"
    scratch_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch_root))
    env = child_env()
    try:
        environment = probe_environment(env, work)
        passes, setup = run_passes(steps, work, env, args.seed, started, args.seconds, bool(args.trace))
        if args.trace:
            values, units = per_layer(passes), dict(PER_LAYER)
        else:
            values, units = end_to_end(passes, setup), dict(END_TO_END)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    invocations = [s for p in passes for s in p.steps]
    failed = sum(s.problem is not None for s in invocations)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "environment": environment,
        "setup_samples_s": setup,
        "passes": [
            {
                "traced": p.traced,
                "wall_s": p.wall_s,
                "calibration_s": p.calibration_s,
                "steps": [
                    {"command": s.command, "wall_s": s.wall_s, "cpu_s": s.cpu_s, "rss_mb": s.rss_mb, "problem": s.problem}
                    for s in p.steps
                ],
            }
            for p in passes
        ],
    }
    print(json.dumps(detail))
    result = {
        "correct": failed == 0,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

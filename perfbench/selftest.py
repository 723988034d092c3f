"""Self-test of the benchmark at reduced size.

    python3 perfbench/selftest.py

Checks, from the root of a source checkout:

1. every workload at ``--size small`` prints, with ``--trace 0`` and
   ``--trace 1``, exactly the metric names and units that BENCHMARK.json
   lists, with every invocation passing its gates;
2. a forced bad exit code and a failed gate each count in ``fail_ratio``;
3. in a directory holding only BENCHMARK.json and the benchmark's files,
   ``run.py`` exits non-zero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json
import shutil
import subprocess
import tempfile
import time
from pathlib import Path

import run
from workloads import WORKLOADS, Step, _exact_gate

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _result(argv: list[str], cwd: Path) -> tuple[int, dict | None]:
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        result = None
    return done.returncode, result


def check_metric_names() -> list[str]:
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        for workload in WORKLOADS:
            argv = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "small"]
            code, result = _result(argv, run.ROOT)
            label = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{label}: exit code {code}, result {result!r}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                problems.append(f"{label}: metrics {sorted(set(got) ^ set(expected))} differ from BENCHMARK.json")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{label}: correct {result['correct']}, {result['failed']} of {result['attempted']} failed")
            if key == "end_to_end" and not all(m["value"] > 0 for m in result["metrics"].values()):
                problems.append(f"{label}: an end-to-end metric is not positive")
            print(f"ok {label}: {len(got)} metrics, {result['attempted']} invocations")
    return problems


def check_fail_ratio() -> list[str]:
    steps = [
        # --trials 0 is a usage error: exit code 2.
        Step("lemmas", ("--n", "5", "--trials", "0"), "lemmas.json", _exact_gate("lemmas.json")),
        # One trial reports one check; a gate that expects two must fail.
        Step("residual-n3", ("--trials", "1"), "residual.json", _exact_gate("residual.json", checks_run=2)),
        Step("residual-scaling", ("--n", "3"), "scaling.json", _exact_gate("scaling.json")),
    ]
    scratch_root = run.ROOT / ".perfbench_work"
    scratch_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        start = time.monotonic()
        passes, _setup = run.run_passes(steps, work, run.child_env(), 0, start, 0.0, trace=True)
        values = run.per_layer(passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = []
    verdicts = [[s.problem is not None for s in p.steps] for p in passes]
    if any(v != [True, True, False] for v in verdicts):
        problems.append(f"fault injection: failures per step {verdicts}, expected [True, True, False]")
    if values["fail_ratio"] != 2 / 3:
        problems.append(f"fault injection: fail_ratio {values['fail_ratio']}, expected 2/3")
    print(f"ok fault injection: fail_ratio {values['fail_ratio']:.4f} over {len(passes)} passes")
    return problems


def check_refuses_without_source() -> list[str]:
    scratch_root = run.ROOT / ".perfbench_work"
    scratch_root.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench")
        code, result = _result(["--workload", "identity-sweep", "--seed", "0", "--seconds", "1"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or result is not None:
        return [f"without a source tree: exit code {code}, result {result!r}"]
    print(f"ok without a source tree: exit code {code}, no result")
    return []


def main() -> int:
    problems = check_metric_names() + check_fail_ratio() + check_refuses_without_source()
    try:
        (run.ROOT / ".perfbench_work").rmdir()
    except OSError:
        pass
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

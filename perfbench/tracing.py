"""Per-layer spans for one kelvinasym CLI invocation, and their aggregation.

Run as a script in place of ``python -m kelvinasym.cli``:

    python3 perfbench/tracing.py SPANS_JSON PASS_ID SUBCOMMAND [ARGS...]

The script wraps, from outside the package, the public functions of the
layer modules (``cli``, ``symfun``, ``exactalg``, ``equations``,
``kelvin``, ``expand``, ``radial``) at every module attribute that binds
them, plus ``MultiPoly.__mul__`` and each CLI subcommand runner.  It then
runs the subcommand through ``cli.dispatch`` and, when the process ends,
writes the spans and the ``_poisson_block`` cache statistics to
SPANS_JSON.  A span is ``[name, start, end, parent, pass_id, counters]``;
``parent`` is the index of the enclosing span or -1.

Time the wrappers spend on their own bookkeeping is taken off the span
clock, so span durations and self times exclude it; the whole-process
cost of tracing still shows in the traced pass's wall time.

`layer_metrics` turns the span files of one pass into the per-layer
metrics named in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

LAYER_MODULES = ("cli", "symfun", "exactalg", "equations", "kelvin", "expand", "radial")

CLI_COMMANDS = (
    "lemmas",
    "kelvin-check",
    "poisson",
    "residual-n3",
    "expand3",
    "radial",
    "fit",
    "residual-scaling",
)

# Per-layer metrics in the order they are reported: (name, unit).
PER_LAYER = [
    ("exactalg.MultiPoly.mul.calls", "count"),
    ("exactalg.MultiPoly.mul.self_s", "s"),
    ("exactalg.MultiPoly.mul.pair_products", "count"),
    ("exactalg.MultiPoly.mul.terms_out", "count"),
    ("exactalg.MultiPoly.mul.merge_ratio", "ratio"),
    ("exactalg.MultiPoly.mul.max_coef_bits", "bits"),
    ("exactalg.solve_radical_poisson.calls", "count"),
    ("exactalg.solve_radical_poisson.self_s", "s"),
    ("exactalg.poisson_block.hits", "count"),
    ("exactalg.poisson_block.misses", "count"),
    ("symfun.verify_identity.calls", "count"),
    ("symfun.verify_identity.s", "s"),
    ("symfun.verify_linear_coefficient.calls", "count"),
    ("symfun.verify_linear_coefficient.s", "s"),
    ("equations.linear_part_defect_n3.calls", "count"),
    ("equations.linear_part_defect_n3.self_s", "s"),
    ("equations.symbolic_residual_n3.calls", "count"),
    ("equations.symbolic_residual_n3.self_s", "s"),
    ("equations.residual_scaling_slopes.s", "s"),
    ("expand.next_correction_n3.calls", "count"),
    ("expand.next_correction_n3.self_s", "s"),
    ("expand.fit_expansion.s", "s"),
    ("expand.fit_expansion.samples", "count"),
    ("expand.read_samples.s", "s"),
    ("expand.read_samples.rows", "count"),
    ("expand.write_samples.s", "s"),
    ("expand.write_samples.rows", "count"),
    ("kelvin.hessian_identity_check.s", "s"),
    ("kelvin.hessian_identity_check.samples", "count"),
    ("radial.integrate_exterior.s", "s"),
    ("radial.integrate_exterior.nodes", "count"),
    ("radial.planned_steps_per_s", "1/s"),
    ("radial.trajectory_samples.s", "s"),
    ("radial.trajectory_samples.samples", "count"),
    ("radial.write_trajectory.s", "s"),
    ("radial.write_trajectory.bytes", "bytes"),
] + [(f"cli.{command}.s", "s") for command in CLI_COMMANDS]


# ── counters recorded at the span boundaries ─────────────────────────────


def _arguments(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _count_mul(fn, args, kwargs, result):
    left, right = args
    right_terms = len(right.terms) if hasattr(right, "terms") else 1
    bits = max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in result.terms.values()),
        default=0,
    )
    return {
        "pair_products": len(left.terms) * right_terms,
        "terms_out": len(result.terms),
        "max_coef_bits": bits,
    }


def _count_integrate(fn, args, kwargs, result):
    bound = _arguments(fn, args, kwargs)
    planned = max(1, int(round((float(bound["r_max"]) - 1.0) / float(bound["step"]))))
    return {"nodes": len(result), "planned_steps": planned}


def _count_write_trajectory(fn, args, kwargs, result):
    return {"bytes": os.path.getsize(_arguments(fn, args, kwargs)["path"])}


_COUNTERS = {
    "exactalg.MultiPoly.mul": _count_mul,
    "expand.fit_expansion": lambda fn, a, k, r: {"samples": len(_arguments(fn, a, k)["samples"])},
    "expand.read_samples": lambda fn, a, k, r: {"rows": len(r)},
    "expand.write_samples": lambda fn, a, k, r: {"rows": len(_arguments(fn, a, k)["samples"])},
    "kelvin.hessian_identity_check": lambda fn, a, k, r: {"samples": r.samples},
    "radial.integrate_exterior": _count_integrate,
    "radial.trajectory_samples": lambda fn, a, k, r: {"samples": len(r)},
    "radial.write_trajectory": _count_write_trajectory,
}


# ── the in-process tracer ────────────────────────────────────────────────


class Tracer:
    """Records nested spans; `skew` is bookkeeping time removed from the clock."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.skew = 0.0

    def wrap(self, name: str, fn):
        count = _COUNTERS.get(name)
        spans, stack, perf = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id, None]
            stack.append(len(spans))
            spans.append(span)
            start = perf()
            self.skew += start - entered
            span[1] = start - self.skew
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                span[2] = end - self.skew
                stack.pop()
            if count is not None:
                span[5] = count(fn, args, kwargs, result)
            self.skew += perf() - end
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function at each module attribute bound to it."""
        import kelvinasym.cli as cli
        from kelvinasym.exactalg import MultiPoly

        package = [m for n, m in list(sys.modules.items()) if n.startswith("kelvinasym.")]
        wrapped = {}
        for short in LAYER_MODULES:
            module = sys.modules[f"kelvinasym.{short}"]
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    wrapped[value] = self.wrap(f"{short}.{attr}", value)
        for module in package:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])
        MultiPoly.__mul__ = self.wrap("exactalg.MultiPoly.mul", MultiPoly.__mul__)
        for command, runner in list(cli._RUNNERS.items()):
            cli._RUNNERS[command] = self.wrap(f"cli.{command}", runner)


def main(argv: list[str]) -> int:
    spans_path, pass_id, cli_argv = argv[0], int(argv[1]), argv[2:]
    import kelvinasym.cli as cli
    from kelvinasym import exactalg

    tracer = Tracer(pass_id)
    tracer.install()
    code = 1
    try:
        code = cli.dispatch(cli_argv)
    finally:
        info = exactalg._poisson_block.cache_info()
        payload = {
            "exit_code": code,
            "spans": tracer.spans,
            "poisson_block": {"hits": info.hits, "misses": info.misses},
        }
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    return code


# ── aggregation in the benchmark process ─────────────────────────────────


def _aggregate(span_files) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds and counters.

    Counters are summed over calls, except ``max_coef_bits``, the largest.
    The ``_poisson_block`` cache statistics are summed over processes.
    """
    cache = {"hits": 0, "misses": 0}
    layers: dict[str, dict] = {"exactalg.poisson_block": cache}
    for path in span_files:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        spans = payload["spans"]
        children_s = [0.0] * len(spans)
        for name, start, end, parent, _pass, _counters in spans:
            if parent >= 0:
                children_s[parent] += end - start
        for index, (name, start, end, _parent, _pass, counters) in enumerate(spans):
            entry = layers.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - children_s[index]
            for key, value in (counters or {}).items():
                if key == "max_coef_bits":
                    entry[key] = max(entry.get(key, 0), value)
                else:
                    entry[key] = entry.get(key, 0) + value
        for key in cache:
            cache[key] += payload["poisson_block"][key]
    return layers


def layer_metrics(span_files) -> dict[str, float]:
    """The PER_LAYER metric values of one pass, from its span files."""
    layers = _aggregate(span_files)

    def get(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    values: dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        layer, _, key = metric.rpartition(".")
        values[metric] = get(layer, key)
    mul = "exactalg.MultiPoly.mul"
    pairs = get(mul, "pair_products")
    values[f"{mul}.merge_ratio"] = get(mul, "terms_out") / pairs if pairs else 0.0
    seconds = get("radial.integrate_exterior", "s")
    planned = get("radial.integrate_exterior", "planned_steps")
    values["radial.planned_steps_per_s"] = planned / seconds if seconds else 0.0
    return values


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

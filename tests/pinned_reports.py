"""The pinned report digests, and a checker that runs each pinned case at
the module entry point.

A case is a list of setup argvs, run in order in one fresh directory, then
the pinned argv, run after them with ``--seed 1 --out r.out``; the pin is
the sha256 of that report.  `test_cli.py` runs every case in process.  Run
this file to run them through ``python -m kelvinasym.cli`` instead, on an
interpreter with neither pytest nor numpy:

    PYTHONPATH=src python tests/pinned_reports.py

It prints one line per case and exits 1 when any run exits nonzero,
writes to stderr, or leaves a report with another sha256.  It uses the
standard library alone.
"""

import hashlib
import math
import os
import subprocess
import sys
import tempfile

# reports that hold only exact values, so no platform libm can move them,
# and a rewrite of the exact residual must leave them byte for byte
EXACT_REPORTS = {
    "expand3": (
        ["expand3", "--order", "8", "--p0", "3/2", "--spectrum", "1,1/2,2"],
        "5843aaf2b404c8055431fd01c217b52c2bcc663eac6d68db576adc589468a7b5",
    ),
    # the benchmark's own report: Q grows from 3 to 18 terms over orders 9-12
    "expand3-order12": (
        ["expand3", "--order", "12", "--p0", "3/2", "--spectrum", "1,1/2,2"],
        "0ce6a826071e993de7902270d7d5716a00eb0731fd24088249c02c9f17c624f9",
    ),
    "residual-n3": (
        ["residual-n3", "--trials", "2"],
        "9f3899bc0c856a038d455464a370f28e4f0c63e5630a999370a87384b1c1d73e",
    ),
    "lemmas-n5": (
        ["lemmas", "--n", "5", "--trials", "2"],
        "88ce1eec37d2e5e47581f3b80722aa5f4bd5ce3d18965c7c73c1d0f6882c4118",
    ),
    "lemmas-n2": (
        ["lemmas", "--n", "2", "--trials", "2"],
        "1f651e23e7c3e406abfc3374df754c49fc400898a86483524ffc5f4155709967",
    ),
    # the benchmark's identity-sweep reports (its residual-scaling-n5 is a
    # float report, below)
    "lemmas-benchmark": (
        ["lemmas", "--n", "5", "--trials", "40"],
        "40484b899ac046522eca878deaebecd6d7fe5b54bfa0d3f1a0a92a4de881dcad",
    ),
    "poisson-benchmark": (
        ["poisson", "--n", "5", "--degree", "6", "--trials", "20"],
        "c9610f658805eb235df43a12f7fbd7768e0cdc111c86e98e7033682bc2a02f1d",
    ),
}

_BENCH_RADIAL = ["radial", "--branch", "slag", "--n", "3", "--theta", repr(3 * math.pi / 4), "--u1", "0.5"]
_BENCH_RADIAL += ["--p1", "1.1", "--rmax", "2000", "--step", "4e-2", "--stride", "25", "--per-radius", "3"]
_BENCH_RADIAL += ["--sample-rmin", "20", "--sample-rmax", "2000", "--samples-out", "samples.csv"]
_BENCH_RADIAL += ["--seed", "1", "--out", "trajectory.csv"]
# the same ray in the plane (theta = 2 atan(1)), whose fit carries the log column
_BENCH_RADIAL_N2 = [*_BENCH_RADIAL[:4], "2", "--theta", "1.5707963267948966", *_BENCH_RADIAL[7:]]
# the benchmark's full-size exterior-fit ray: 7,600 log steps, a node every 1000 r-steps
_BENCH_RADIAL_FULL = [*_BENCH_RADIAL[:13], "--step", "1e-3", "--stride", "1000", *_BENCH_RADIAL[17:]]
# one quadratic ray per kind (theta = 3 g(alpha), u1 = alpha / 2, p1 = alpha)
_KIND_RADIAL = ["radial", "--n", "3", "--rmax", "20", "--step", "1e-2", "--stride", "50"]

# float reports: these bytes depend on the platform's libm (sqrt, atan,
# log, exp, tan), as the trajectory-samples pin does, so they are pinned for
# one libm.  Every float sum folds left to right (exactalg._sum), so the
# bytes are the same on Python 3.10 to 3.13.  A rewrite of the branch maps,
# the Kelvin assembly or the fit must leave them byte for byte.
FLOAT_REPORTS = {
    "kelvin-check-n4-flat": (
        [],
        ["kelvin-check", "--branch", "slag", "--n", "4", "--spectrum", "1,1,1,1", "--samples", "20"],
        "b9907d42759b09402d8c3836a1758b42913ece8e2cdc4d9b3b56f7a27434e8ad",
    ),
    "kelvin-check-n3-slag": (
        [],
        ["kelvin-check", "--branch", "slag", "--n", "3", "--samples", "50"],
        "b5924c85d6f767682b1722c94abe5bad3074d1c05682d68cf7bc75d6ddb6b1a2",
    ),
    "kelvin-check-n3-recip": (
        [],
        ["kelvin-check", "--branch", "recip", "--theta", "-1.5", "--n", "3", "--samples", "50"],
        "f580c1e966b3b0e343eb8dd76593062d6cd8de84f04a2c0c010d444d88383bc5",
    ),
    "fit-benchmark-annuli": (
        [_BENCH_RADIAL],
        ["fit", "--samples", "samples.csv", "--n", "3", "--annuli", "20:35,35:63,63:112,112:201,1500:2000.5"],
        "450ae63f68cfd3b4182989d67c720c3b7f312348f64bae5e5244fc538b776ef7",
    ),
    "fit-n2-log-annuli": (
        [_BENCH_RADIAL_N2],
        ["fit", "--samples", "samples.csv", "--n", "2", "--annuli", "20:35,35:63,63:112,112:201,1500:2000.5"],
        "c1c7d05c929b16dfc0ce3aedbdabf9634bea94f08371d561be197a7b22a935ff",
    ),
    # the three outputs the benchmark's full-size exterior-fit pass writes:
    # the trajectory (its samples are pinned in test_radial.py), the fit of
    # those samples, and the 200-sample Hessian check
    "radial-benchmark": (
        [],
        _BENCH_RADIAL_FULL[:-4],
        "cf04c6665d9759236cc08eb2540ff5bece821043954df08f18eab6152df2c921",
    ),
    "fit-benchmark": (
        [_BENCH_RADIAL_FULL],
        ["fit", "--samples", "samples.csv", "--n", "3", "--annuli", "20:35,35:63,63:112,112:201,1500:2000.5"],
        "9537f8fedad3be95efdf361c5394087b38612bd8095a02d1545376eae31427fa",
    ),
    "kelvin-check-benchmark": (
        [],
        ["kelvin-check", "--branch", "slag", "--n", "4", "--spectrum", "1,1,1,1", "--samples", "200"],
        "5269fdc545da27f7b47a7157d717fa6f600152ca008d833dee7d2b105cc4a510",
    ),
    "radial-slag": (
        [],
        [*_KIND_RADIAL, "--branch", "slag", "--theta", "2.356194490192345", "--u1", "0.5", "--p1", "1.0"],
        "70e07ea25c4e37aa440b810eca369a263b6bb7c5e61c0c8af411f1973f7bb43b",
    ),
    "radial-recip": (
        [],
        [*_KIND_RADIAL, "--branch", "recip", "--theta", "-2.8284271247461903", "--u1", "0.25", "--p1", "0.5"],
        "8501adeb69c3aa81f0dea6c8477b191255720c97754aa28eb48f93032bfa0794",
    ),
    "radial-atan2": (
        [],
        [*_KIND_RADIAL, "--branch", "atan2", "--tau", "1.1780972450961724"]
        + ["--theta", "-0.684154087243197", "--u1", "0.1", "--p1", "0.2"],
        "184af9f16add00621a9714cbfa82f121c181eebdacf8834bb7cd6297de6a4348",
    ),
    "radial-log": (
        [],
        [*_KIND_RADIAL, "--branch", "log", "--tau", "0.39269908169872414"]
        + ["--theta", "-4.016441762781083", "--u1", "0.15", "--p1", "0.3"],
        "4bdd04d7944f8dd4480e23d1e99344837b7fdefca70cdf17ce4c8a3ac811f52a",
    ),
    "residual-scaling-n3": (
        [],
        ["residual-scaling", "--n", "3"],
        "61a5e954b47ca145b01609c91fe54a17aa604d856ce0139413332ad5e3b1222b",
    ),
    "residual-scaling-n4": (
        [],
        ["residual-scaling", "--n", "4"],
        "cd8e16d135812a1ef167adc1a27ce0f87e88afff8e2b5251c0ed2e94ffba5897",
    ),
    "residual-scaling-n5": (
        [],
        ["residual-scaling", "--n", "5"],
        "7e7197571788000577641ac2756545a8ccf3dc133b8ad5ee404a51718ad9c983",
    ),
}


def check(setup, argv, digest) -> str | None:
    """Run one case through ``python -m kelvinasym.cli`` in a fresh
    directory: None when it reproduces its pin, else what went wrong."""
    env = dict(os.environ)
    if "PYTHONPATH" in env:
        # the runs start in another directory, so a relative entry must not move
        env["PYTHONPATH"] = os.pathsep.join(map(os.path.abspath, env["PYTHONPATH"].split(os.pathsep)))
    with tempfile.TemporaryDirectory() as work:
        for step in [*setup, [*argv, "--seed", "1", "--out", "r.out"]]:
            proc = subprocess.run(
                [sys.executable, "-m", "kelvinasym.cli", *step],
                cwd=work,
                env=env,
                capture_output=True,
                text=True,
                timeout=600,
            )
            if proc.returncode != 0 or proc.stderr:
                return f"{step[0]} exited {proc.returncode} with stderr {proc.stderr.strip()!r}"
        with open(os.path.join(work, "r.out"), "rb") as fh:
            got = hashlib.sha256(fh.read()).hexdigest()
    return None if got == digest else f"sha256 {got}, pinned {digest}"


def main() -> int:
    cases = {name: ([], argv, digest) for name, (argv, digest) in EXACT_REPORTS.items()}
    cases.update(FLOAT_REPORTS)
    failures = 0
    for name, case in cases.items():
        problem = check(*case)
        print(f"{name}: {problem or 'ok'}", flush=True)
        failures += problem is not None
    print(f"{len(cases) - failures} of {len(cases)} pinned reports reproduced")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

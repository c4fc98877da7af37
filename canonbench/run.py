#!/usr/bin/env python3
"""The canonlab benchmark.

Usage, from the root of a source checkout:

    python3 canonbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it drives the program through its public surface: each
command of the workload runs as a ``python -m canonlab ...`` subprocess, one
at a time, from this single process.  Whole passes over the command
list repeat until ``--seconds`` have passed, and every output is checked.
It reports the end-to-end metrics:

* ``wall_s``: wall time of one pass over the command list, interpreter
  start included, at the reference host speed (below): the sum over
  commands of each one's median wall;
* ``lext_per_s``: labeled linear extensions accounted for per second, the
  sum over commands of e(P) x labelings, divided by ``wall_s``.  Each count
  is the one the reference output accounts for, which an oracle confirmed;
  a run's output must be byte-identical to that reference;
* ``peak_rss_mb``: the largest max-RSS of the workload's child processes,
  from ``os.wait4``.  A child's figure is at least this process's own RSS
  at spawn time, so this process stays small and does not import canonlab
  here;
* ``setup_s``: median over several fresh interpreters that import
  ``canonlab.cli`` and build its parser, the cost every command pays, at
  the reference host speed.

Host speed.  On a few cores of a shared host, the same code runs 10-25%
faster or slower from one minute to the next, and a whole run can fall in
a slow spell; then every statistic of its raw walls moves with it.  So a
probe runs before each command: a fresh isolated interpreter (``-I -S``,
so nothing of the checkout is loaded) running fixed pure-Python work.
Times are reported scaled by ``PROBE_REF_S`` over the run's median probe
wall, that is, at the speed where the probe takes ``PROBE_REF_S``.  The
probe does not touch canonlab, so a change to canonlab moves the scaled
times exactly as much as the raw ones.  Over nine 25 s spans on a 2-vCPU
host, the median walls of set-up, ``sweep-subsets`` and ``gamma-classes``
spread (quartile distance over median) 20%, 20% and 17%; scaled by this
probe, 3%, 3% and 7%.  A bare integer loop as the probe did only half as
well: it misses the slow spells that hit memory more than arithmetic.
Over two sets of ten 25 s runs of each workload, scaled walls spread 4-10%
(raw: 5-21%; when the host is calm the probe's own noise can make the
scaled figure the wider one) and the two sets' medians agreed within 6%.
The raw walls and probe walls are in the line before the result.

With ``--trace 1`` it instead calls ``canonlab.cli.main(argv)`` in this
process, alternating an untraced and a traced pass, and reports the
per-layer metrics of the traced passes (see ``tracing.py``).  Traced stdout
must be byte-identical to the reference stdout of the untraced commands.
``trace.overhead_s`` is traced minus untraced in-process wall; where the
tracing costs less than the machine's noise it can read below zero.

Every command's exit status and stdout digest is compared with the
reference: ``reference.json`` for the fixed workloads (recorded by
``record_reference.py``), the benchmark's own oracle for the seeded one.
``failed`` counts the commands that differ, out of ``attempted``.
The last line of stdout is the JSON result; the line before it records the
seed, the kernel backend, CPU count, Python version and git SHA.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_SETUP_SAMPLES = 7
# A run stays under 180 s: children still running this long after its start
# are killed and count as failed.
RUN_LIMIT_S = 170
# Fixed pure-Python work in the program's style (dicts, tuples, strings,
# sorting, big ints), which takes about PROBE_REF_S on the 2-vCPU host the
# benchmark was written on.  Both are constants, so runs of two commits
# compare.
PROBE_CODE = """
d = {}
for i in range(150_000):
    d[i * 7919 % 1000003] = (i, str(i))
s = sorted(d.items(), key=lambda kv: kv[1][1])
x = sum(k for k, _ in s)
y = 1
for i in range(1, 3000):
    y = y * i % (1 << 4000)
"""
SPEED_PROBE = ["-I", "-S", "-c", PROBE_CODE]
PROBE_REF_S = 0.25
SETUP_PROBE = (
    "import canonlab, canonlab.cli; canonlab.cli.build_parser(); "
    "print(canonlab.kernel_backend())"
)


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CANONLAB_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], env: dict[str, str],
              deadline: float) -> tuple[int, bytes, float, float]:
    """Run one child to completion: (exit code, stdout, wall s, max RSS MB)."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    timer = threading.Timer(max(1.0, deadline - start), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, wall, usage.ru_maxrss / 1024


@dataclass(frozen=True)
class Expected:
    """What one command must produce."""

    argv: list[str]
    exit_code: int
    sha256: str
    lext: int  # labeled linear extensions the output accounts for

    def matches(self, exit_code: int, stdout: bytes) -> bool:
        return (exit_code == self.exit_code
                and hashlib.sha256(stdout).hexdigest() == self.sha256)


def expected_commands(name: str, seed: int, workdir: Path) -> list[Expected]:
    if name != "poset-files":
        refs = json.loads((HERE / "reference.json").read_text())
        out = []
        for argv in workloads.FIXED_COMMANDS[name]:
            ref = refs[" ".join(argv)]
            out.append(Expected(argv, ref["exit"], ref["sha256"], ref["lext"]))
        return out
    out = []
    for i, (poset, hist) in enumerate(workloads.generate_posets(seed)):
        path = workdir / f"poset{i}.json"
        path.write_text(poset.to_json())
        hstar = json.dumps({"coeffs": [str(c) for c in hist]}) + "\n"
        count = f"{sum(hist)}\n"
        for argv, stdout in (
            (["poly", "hstar", "--poset", str(path), "--format", "json"], hstar),
            (["extensions", "--poset", str(path), "--count-only"], count),
        ):
            out.append(Expected(argv, 0, hashlib.sha256(stdout.encode()).hexdigest(),
                                sum(hist)))
    return out


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():  # an exported tree, maybe inside another repo
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure_untraced(cmds: list[Expected], seconds: float,
                     deadline: float) -> tuple[dict, dict]:
    env = _child_env()
    attempted = failed = 0
    # Warm-up: compiles the package's bytecode and names the backend.
    code, out, _, _ = run_child(["-c", SETUP_PROBE], env, deadline)
    backend = out.decode().strip()
    if code != 0 or backend not in ("python", "cython"):
        raise SystemExit(f"cannot import canonlab from {SRC}")

    setups: list[float] = []

    def setup_sample():
        nonlocal attempted, failed
        code, out, wall, _ = run_child(["-c", SETUP_PROBE], env, deadline)
        attempted += 1
        failed += code != 0 or out.decode().strip() != backend
        setups.append(wall)

    probes: list[float] = []

    def speed_sample():
        nonlocal attempted, failed
        code, _, wall, _ = run_child(SPEED_PROBE, env, deadline)
        attempted += 1
        failed += code != 0
        probes.append(wall)

    walls: list[list[float]] = [[] for _ in cmds]  # per command, one per pass
    peak_rss = 0.0
    started = perf_counter()
    while not walls[0] or perf_counter() - started < seconds:
        for cmd, cmd_walls in zip(cmds, walls):
            # A set-up sample and a speed probe before each command spread
            # both over the run, so their medians see the host at the same
            # moments as the commands' medians do.
            setup_sample()
            speed_sample()
            code, out, wall, rss = run_child(["-m", "canonlab", *cmd.argv], env, deadline)
            attempted += 1
            failed += not cmd.matches(code, out)
            cmd_walls.append(wall)
            peak_rss = max(peak_rss, rss)
    while len(setups) < MIN_SETUP_SAMPLES:
        setup_sample()
    lext = sum(c.lext for c in cmds)
    # A pass costs the sum of its commands' median walls, which is less
    # sensitive than the median of pass sums to one slow command.
    raw_wall_s = sum(statistics.median(w) for w in walls)
    scale = PROBE_REF_S / statistics.median(probes)
    wall_s = raw_wall_s * scale
    metrics = {
        "wall_s": (wall_s, "s"),
        "lext_per_s": (lext / wall_s, "1/s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "setup_s": (statistics.median(setups) * scale, "s"),
    }
    info = {"backend": backend, "passes": len(walls[0]), "command_walls_s": walls,
            "setup_samples_s": setups, "probe_walls_s": probes,
            "raw_wall_s": raw_wall_s, "speed_scale": scale, "lext_per_pass": lext}
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, info


def measure_traced(cmds: list[Expected], seconds: float) -> tuple[dict, dict]:
    for key in [k for k in os.environ if k.startswith("CANONLAB_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    import canonlab
    import canonlab.cli
    from tracing import Tracer

    def one_pass(tracer: Tracer | None) -> tuple[float, int, int]:
        """Run every command in-process: (wall s, stdout bytes, mismatches)."""
        wall = 0.0
        nbytes = mismatches = 0
        for cmd in cmds:
            buf = io.StringIO()
            with contextlib.ExitStack() as stack:
                if tracer is not None:
                    stack.enter_context(tracer.installed())
                stack.enter_context(contextlib.redirect_stdout(buf))
                start = perf_counter()
                code = canonlab.cli.main(list(cmd.argv))
                wall += perf_counter() - start
            out = buf.getvalue().encode()
            nbytes += len(out)
            mismatches += not cmd.matches(code, out)
        return wall, nbytes, mismatches

    attempted = failed = 0
    rows = []
    started = perf_counter()
    while not rows or perf_counter() - started < seconds:
        plain_wall, _, bad_plain = one_pass(None)
        tracer = Tracer()
        traced_wall, nbytes, bad_traced = one_pass(tracer)
        attempted += 2 * len(cmds)
        failed += bad_plain + bad_traced
        rows.append(_layer_metrics(tracer, traced_wall, plain_wall, nbytes))
    # median_low keeps counts whole: each value is one pass's measurement.
    metrics = {
        name: (statistics.median_low(row[name][0] for row in rows), unit)
        for name, (_, unit) in rows[0].items()
    }
    info = {"backend": canonlab.kernel_backend(), "passes": len(rows)}
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, info


def _layer_metrics(tracer, traced_wall: float, plain_wall: float, nbytes: int) -> dict:
    times = tracer.self_times()

    def calls(*keys):
        return sum(times.get(k, (0, 0.0))[0] for k in keys)

    def self_s(*keys):
        return sum(times.get(k, (0, 0.0))[1] for k in keys)

    return {
        "kernel.hist.calls": (calls("kernel.hist"), "count"),
        "kernel.hist.lanes": (tracer.lanes, "count"),
        "kernel.hist.self_s": (self_s("kernel.hist"), "s"),
        "kernel.count.calls": (calls("kernel.count"), "count"),
        "kernel.count.self_s": (self_s("kernel.count"), "s"),
        "linext.enum.calls": (calls("linext.enum"), "count"),
        "linext.enum.yielded": (tracer.yielded, "count"),
        "linext.enum.self_s": (self_s("linext.enum", "linext.enum.step"), "s"),
        "linext.self_s": (self_s("linext", "linext.enum", "linext.enum.step"), "s"),
        "canon.self_s": (self_s("canon"), "s"),
        "poset.build.calls": (calls("poset.build"), "count"),
        "poset.build.self_s": (self_s("poset.build"), "s"),
        "poset.load.self_s": (self_s("poset.load"), "s"),
        "polys.calls": (calls("polys"), "count"),
        "polys.self_s": (self_s("polys"), "s"),
        "cli.self_s": (self_s("cli"), "s"),
        "cli.stdout_bytes": (nbytes, "bytes"),
        "kernel.share": (self_s("kernel", "kernel.hist", "kernel.count") / traced_wall,
                         "ratio"),
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = perf_counter() + RUN_LIMIT_S

    if not (SRC / "canonlab" / "cli.py").is_file():
        print(f"error: no canonlab source tree at {SRC}", file=sys.stderr)
        return 2

    workdir = ROOT / ".canonbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cmds = expected_commands(args.workload, args.seed, workdir)
        if args.trace:
            result, info = measure_traced(cmds, args.seconds)
        else:
            result, info = measure_untraced(cmds, args.seconds, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commands": [" ".join(c.argv) for c in cmds],
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "git_sha": _git_sha(), **info,
    }
    print(json.dumps({"run": record}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

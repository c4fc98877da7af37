"""Run one canonlab command and hold it to the CLI's exit contract.

    python tests/contract.py --exit N --seconds S [--mb M] [--cap-kb K] [--stderr PHRASE] -- ARGV...

runs ``python -m canonlab ARGV...`` with stdout discarded, killed after S
seconds and, with ``--cap-kb``, under an address space of K KB; prints its
exit, wall time, peak RSS and last stderr line; and exits 1 unless it
exits N within S seconds (and M MB) with PHRASE on its stderr and keeps
the exit contract.  A child's peak RSS, read from ``os.wait4``, starts at
its parent's, so this process imports neither pytest nor canonlab.
"""

import os
import resource
import subprocess
import sys
import threading
import time

OPTIONS = {"--exit", "--seconds", "--mb", "--cap-kb", "--stderr"}


def exit_contract_broken(code, err: str):
    """What a run with exit ``code`` and stderr ``err`` breaks of the exit
    contract, or None: it exits 0, 1 or 2, prints no traceback, and an exit
    2 ends stderr with its one error line."""
    if code not in (0, 1, 2):
        return f"exit {code}"
    if "Traceback" in err:
        return "a traceback"
    if code == 2 and "error:" not in (err.splitlines() or [""])[-1]:
        return "exit 2 without a last error line"
    return None


def run(argv, seconds: float, cap_kb: int = 0):
    """Run ``python -m canonlab argv``, killed after ``seconds``:
    (exit code, wall s, peak RSS MB, stderr)."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (cap_kb << 10, cap_kb << 10))

    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "canonlab", *argv], stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE, preexec_fn=cap if cap_kb else None)
    timer = threading.Timer(seconds, child.kill)
    timer.start()
    with child.stderr:
        err = child.stderr.read().decode(errors="replace")
    _, status, usage = os.wait4(child.pid, 0)
    timer.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, time.perf_counter() - start, usage.ru_maxrss / 1024, err


def main(args) -> int:
    split = args.index("--") if "--" in args else -1
    opts, argv = dict(zip(args[:split:2], args[1:split:2])), args[split + 1:]
    if split % 2 or not {"--exit", "--seconds"} <= set(opts) <= OPTIONS or not argv:
        sys.exit(__doc__.split("\n\n")[1])
    expected, seconds = int(opts["--exit"]), float(opts["--seconds"])
    mb, phrase = float(opts.get("--mb", "inf")), opts.get("--stderr", "")
    code, wall, peak, err = run(argv, seconds, int(opts.get("--cap-kb", 0)))
    last = (err.strip().splitlines() or [""])[-1]
    print(f"canonlab {' '.join(argv)}: exit {code} in {wall:.2f} s, peak RSS {peak:.1f} MB"
          + (f": {last}" if last else ""))
    broken = [why for why in (code != expected and f"expected exit {expected}",
                              wall > seconds and f"over {seconds:g} s",
                              peak > mb and f"over {mb:g} MB",
                              phrase not in err and f"no {phrase!r} on stderr",
                              exit_contract_broken(code, err)) if why]
    if broken:
        print(f"  <- {'; '.join(broken)}\n{err}", end="")
    return bool(broken)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

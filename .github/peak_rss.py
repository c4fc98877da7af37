"""Run one canonlab command under a 60 s timeout and check its exit code,
its peak RSS and, when asked, a phrase on its stderr.

    python .github/peak_rss.py EXIT LIMIT_MB [--stderr PHRASE] ARGV...

runs ``python -m canonlab ARGV...`` with stdout discarded, prints the
exit code, the peak RSS and stderr, and exits 1 unless the command exits
EXIT within LIMIT_MB megabytes with PHRASE on its stderr.  The peak is
read with getrusage, as GNU time need not be installed.
"""

import resource
import subprocess
import sys

expected, limit, *argv = sys.argv[1:]
phrase = ""
if argv[:1] == ["--stderr"]:
    phrase, argv = argv[1], argv[2:]
print(f"canonlab {' '.join(argv)} (expect exit {expected}, within {limit} MB)", flush=True)
done = subprocess.run(["timeout", "60", sys.executable, "-m", "canonlab", *argv],
                      stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
err = done.stderr.strip()
print(f"exit {done.returncode}, peak RSS {peak:.1f} MB" + (f": {err}" if err else ""))
sys.exit(done.returncode != int(expected) or peak > float(limit) or phrase not in done.stderr)

"""Run one cyclocone command as a child process and check it within a budget.

    python .github/run_within.py --sha256 HEX --max-mb N -- ARGV...

runs `python -m cyclocone.cli ARGV...`, hashes its stdout as it streams and
reads the child's peak resident set (ru_maxrss) when it exits.  It prints
one line with the exit code, digest and peak, and exits 0 only when the
child exited 0, the digest equals HEX and the peak is below N MB.
"""

import argparse
import hashlib
import os
import subprocess
import sys


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sha256", required=True, help="expected stdout digest")
    parser.add_argument("--max-mb", type=float, required=True, help="peak RSS bound")
    parser.add_argument("argv", nargs="+", help="cyclocone arguments, after --")
    args = parser.parse_args()
    child = subprocess.Popen(
        [sys.executable, "-m", "cyclocone.cli", *args.argv], stdout=subprocess.PIPE
    )
    digest = hashlib.sha256()
    for chunk in iter(lambda: child.stdout.read(1 << 16), b""):
        digest.update(chunk)
    _, status, usage = os.wait4(child.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    peak_mb = usage.ru_maxrss / 1024
    print(f"exit {code}, sha256 {digest.hexdigest()}, peak {peak_mb:.1f} MB")
    ok = code == 0 and digest.hexdigest() == args.sha256 and peak_mb < args.max_mb
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Peak resident memory of one syncword CLI run, checked against a limit.

    python tests/child_rss.py LIMIT_MIB reset-word cerny:22 --json

Runs `python -m syncword.cli ARGS...` as the only child of this process and
reads the child's ru_maxrss (KiB on Linux).  A child's ru_maxrss also counts
the resident memory of the process that spawned it, so the CLI is spawned
from this small script rather than from a large one such as pytest.  Prints
the peak; exits with the CLI's code when that is nonzero, else 1 when the
peak reaches LIMIT_MIB, else 0.
"""

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    limit = float(argv[0])
    proc = subprocess.run([sys.executable, "-m", "syncword.cli", *argv[1:]],
                          stdout=subprocess.DEVNULL)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{' '.join(argv[1:])}: peak RSS {peak:.1f} MiB, limit {limit:g} MiB,"
          f" exit code {proc.returncode}")
    return proc.returncode or int(peak >= limit)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

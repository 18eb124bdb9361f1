"""Run one dioph-lab command as a child under `python -O` and check its memory.

    python tests/child_peak_rss.py CAP_MB ARGV...

runs `python -O -m dioph_lab.cli ARGV...`, prints the child's peak RSS and
exits 1 when it is above CAP_MB (or the command fails).  The peak is read
with getrusage(RUSAGE_CHILDREN), so the command is the only child.
"""

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    cap_mb, *command = argv
    subprocess.run([sys.executable, "-O", "-m", "dioph_lab.cli", *command], check=True)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{command[0]} child peak RSS {peak_mb:.1f} MB")
    return int(peak_mb > float(cap_mb))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

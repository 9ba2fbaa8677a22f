"""Run one command; print its exit code, wall seconds and peak RSS in KiB.

Linux starts a new program's peak-RSS count at the peak of the process
that spawned it, so a child of the benchmark, which holds numpy and
cryptography, would report at least the benchmark's own peak. This
launcher is small (run it with `python -S`), so the figure it prints is
the command's own. The command's stdout goes to this process's stderr,
and it is killed after TIMEOUT seconds.

Usage: python3 -S spawn.py TIMEOUT PROGRAM [ARG...]
"""

import os
import signal
import sys
import time


def main() -> None:
    timeout, argv = int(sys.argv[1]), sys.argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ,
                         file_actions=[(os.POSIX_SPAWN_DUP2, 2, 1)])
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(timeout)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.alarm(0)
    print(os.waitstatus_to_exitcode(status), repr(wall), usage.ru_maxrss)


if __name__ == "__main__":
    main()

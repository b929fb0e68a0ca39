"""Run one command and report its wall time and its own rusage.

    python3 perfbench/spawner.py <timeout_s> <stdout_path> <program> [args...]

Prints one JSON object: exit code, wall seconds from spawn to reap,
peak RSS in MiB and CPU seconds of the command alone.

Linux starts a child's peak-RSS record from the memory of the process
that spawned it, so a command spawned straight from a benchmark that
holds a large cap would report at least that much.  This small process,
which imports nothing heavy, spawns the command instead; the floor it
leaves is its own few MiB.  A command still running after timeout_s is
killed and reaped.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time


def main(argv: list[str]) -> int:
    timeout_s, out_path, *command = argv
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        pid = os.posix_spawnp(
            command[0], command, os.environ, file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1)]
        )

    def kill(signum, frame):
        # wait4 resumes after this handler and reaps the killed command
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGALRM, kill)
    signal.alarm(max(1, int(float(timeout_s))))
    _, status, ru = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    signal.alarm(0)
    print(json.dumps({
        "code": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "rss_mib": ru.ru_maxrss / 1024.0,
        "cpu_s": ru.ru_utime + ru.ru_stime,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Starts the measured child processes on behalf of run.py.

On Linux a child's peak resident set (ru_maxrss) includes the peak of
the process it was forked from, because the kernel carries the
high-water mark across fork and exec. run.py grows while it checks
outputs, so it starts this small process first and asks it to start
every measured child; then a child's peak is its own.

Protocol: one JSON request per line on stdin, {"argv", "cwd", "log",
"timeout"}; one JSON reply per line on stdout, {"wall_s", "rss_mib",
"code"}. The process exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv, cwd, log, timeout):
    with open(log, "w") as fh:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mib": usage.ru_maxrss / 1024.0, "code": proc.returncode}


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["cwd"], request["log"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Start the benchmark's commands from a small process.

A child's ``ru_maxrss`` includes the peak memory of the process that
spawned it, because Linux records the old address space's peak on
``exec``.  The benchmark itself grows while it generates inputs and
runs the batch, so it starts this process first and has it spawn every
``rhodf`` command; ``peak_rss_mb`` is then the command's own.

Reads one JSON request per line on standard input (``argv``, ``cwd``,
``stdout``, ``stderr`` and ``timeout``) and answers each with one JSON
line: exit code, wall seconds, ``ru_maxrss`` in MB and whether the
command was killed for running past its timeout.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

running = None


def stop(*_):
    if running is not None:
        running.kill()
        running.wait()
    sys.exit(143)


def main() -> None:
    global running
    signal.signal(signal.SIGTERM, stop)
    for line in sys.stdin:
        req = json.loads(line)
        timed_out = threading.Event()
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            running = proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdout=out, stderr=err)

            def kill():
                timed_out.set()
                proc.kill()

            timer = threading.Timer(req["timeout"], kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            running = None
        reply = {"code": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "timed_out": timed_out.is_set()}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()

"""Small helper process that starts the benchmarked commands.

On Linux a child's peak RSS as reported by wait4 includes the memory of the
process it was forked from, so the benchmark, which holds its inputs and
references in memory, does not start commands itself.  It starts this helper
once (`python3 -I -S spawner.py`, which imports no numpy) and sends it one
JSON request per line on stdin:

    {"argv": [...], "cwd": "...", "env": {...}, "stdout": path, "stderr": path,
     "timeout": seconds}

The helper runs the command, times it from spawn to exit, reaps it with wait4
and answers with one JSON line: {"elapsed": s, "maxrss_kb": kb, "code": rc}.
A command still running after `timeout` seconds is killed.  The helper exits
when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            req["argv"], cwd=req["cwd"], env=req["env"],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        killer = threading.Timer(req["timeout"], proc.kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"elapsed": elapsed, "maxrss_kb": usage.ru_maxrss, "code": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

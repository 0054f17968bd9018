"""A small process that starts the benchmark's CLI child processes.

Linux folds the address space a process leaves at ``execve`` into its
``ru_maxrss``.  A child that the benchmark process starts directly would
therefore report at least the benchmark's own peak resident set (it holds
whole designs), not the program's.  The benchmark starts this helper
before it builds anything, so the helper stays small, and has it start
every CLI process whose peak memory it reports.

Protocol: one JSON request per stdin line, ``{"argv", "cwd", "env",
"stdout", "stderr"}`` (output file paths); one JSON reply per stdout line,
``{"wall_s", "maxrss_kib", "returncode"}``.  The helper exits at EOF.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "w") as out, open(request["stderr"], "w") as err:
            began = time.perf_counter()
            proc = subprocess.Popen(
                request["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                cwd=request["cwd"], env=request["env"],
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - began
        print(json.dumps({
            "wall_s": wall,
            "maxrss_kib": usage.ru_maxrss,
            "returncode": os.waitstatus_to_exitcode(status),
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

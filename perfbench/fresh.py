"""Runs one CLI command in a fresh ``python3 -m kanext.cli`` process.

    python3 perfbench/fresh.py SRC_DIR < config.json

Prints one JSON object: the command's wall time from spawn to exit, the
largest resident set the process reached, its exit code, stdout and stderr.
Linux carries the resident set of the process that spawns a child into the
child's peak, so the benchmark, which holds numpy, scipy and its inputs,
spawns this small process to spawn the command: the peak is then the
command's own.
"""

import json
import os
import resource
import subprocess
import sys
import time

TIMEOUT_S = 60


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [sys.argv[1], env.get("PYTHONPATH")]))
    text = sys.stdin.read()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "kanext.cli", "--config", "-"], env=env,
                            text=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(text, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    wall = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    json.dump({"wall_s": wall, "peak_mb": peak_kb / 1024.0, "code": proc.returncode,
               "stdout": out, "stderr": err}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

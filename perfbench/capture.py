"""Write perfbench/expected.json from the program as it is now.

    python3 perfbench/capture.py

Run from the root of a qstrange checkout.  Every item of every workload is
run once and stored under its id: reports as the SHA-256 of their canonical
JSON, CLI calls as exit code and exact stdout.  The benchmark then fails any
item whose result differs.  Only re-capture when a change is meant to alter
outputs, and say so in the change.
"""

import json
import os
import platform
import subprocess
import sys

import numpy

import workloads


def main():
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    env = workloads.child_env(root)
    results = {}
    for workload in workloads.WORKLOADS:
        got = {}
        for item in workloads.plan(workload, 0):
            result = workloads.execute(item, env)
            got[item.id] = workloads.canonical(item, result)
            if workloads.judge(item, result, got):
                raise SystemExit(f"{item.id}: not the verdict the paper states")
        results[workload] = dict(sorted(got.items()))
    sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                         check=False).stdout.decode().strip() or None
    cpu = None
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), None)
    meta = {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu_count": os.cpu_count(),
            "cpu_model": cpu}
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "expected.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"captured_at": meta, "results": results}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

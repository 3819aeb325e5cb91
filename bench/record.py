"""Record the canonical report digests that run.py checks against.

    python3 bench/record.py

Runs every input set of every workload once and writes one sha256 per
job to digests.json.  It refuses to record a set in which any job fails
another check (exit code, verdict or oracle).  Re-record only when a
change to the program alters report bytes on purpose, and say why.
"""

import json
import sys

from run import BENCH, run_worker
from workloads import SETS, WORKLOADS


def main():
    digests = {}
    for workload in WORKLOADS:
        digests[workload] = {}
        for index in range(SETS):
            result = run_worker(workload, index, record=True)
            bad = [(j["id"], j["problem"]) for j in result["jobs"]
                   if j["problem"]]
            if bad:
                print(f"{workload} set {index}: {bad}", file=sys.stderr)
                return 1
            digests[workload][str(index)] = [
                j["digest"] for j in result["jobs"]]
            print(f"{workload} set {index}: {len(result['jobs'])} jobs, "
                  f"{result['wall_s']:.2f} s")
    with open(BENCH / "digests.json", "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

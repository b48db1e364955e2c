"""Record the stdout digest of every default-seed request.

    python3 perfbench/record_digests.py

Each request runs once and must pass its output check first.  A run at
the default seed then fails any request whose stdout differs byte for
byte from the digest recorded here.  Re-record only when the program's
output is meant to change, or when a workload's request list changes.
"""

from __future__ import annotations

import json
import sys

import worker
import workloads


def main() -> int:
    digests = {}
    for name in workloads.GENERATORS:
        requests = workloads.generate(name, workloads.DEFAULT_SEED)
        bench = worker.Run(requests, None)
        bench.one_pass()
        if bench.failed:
            print("\n".join(bench.problems), file=sys.stderr)
            return 1
        digests[name] = [bench.verdicts[i][0] for i in range(len(requests))]
        print(f"{name}: {len(requests)} digests")
    worker.DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

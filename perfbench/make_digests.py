"""Record the report digest of every hidden index of every workload.

    PYTHONPATH=src python3 perfbench/make_digests.py

Run once from the root of a checkout whose reports are known good; the
result, `perfbench/digests.json`, is what the benchmark's gate compares with.
"""

from __future__ import annotations

import json
import os

from run import PINNED_ENV

os.environ.update(PINNED_ENV)  # before numpy loads, as in the benchmark's workers

from cycsim import driver  # noqa: E402
from workloads import DIGEST_FILE, WORKLOADS, report_digest  # noqa: E402


def main() -> None:
    out = {}
    for name, workload in WORKLOADS.items():
        digests = {}
        for s in range(workload.p - 1):
            report = driver.run_experiment(workload.config(s))
            if not report.verification["success"]:
                raise SystemExit(f"{name}: hidden index {s} did not verify")
            digests[str(s)] = report_digest(report)
        out[name] = {"config": workload.config_key(), "digests": digests}
        print(f"{name}: {len(digests)} digests", flush=True)
    DIGEST_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

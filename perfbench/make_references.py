"""Regenerate ``perfbench/references.json`` from the current library.

Usage (from the repository root)::

    python3 perfbench/make_references.py                 # every workload
    python3 perfbench/make_references.py replay_p90      # one workload

Runs one pass of each workload for every input seed and records its
outputs (per-period servers and energy proxy for ``serve_churn``,
per-period servers and violations plus energy / violation / mean-server
totals for ``replay_*``, a digest of each rendered experiment for
``paper_fast``).  Only regenerate when a change is *meant* to alter
these outputs, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import OUT, REFERENCES, WORKLOAD_NAMES, configure_environment


def main(argv: list[str]) -> int:
    configure_environment()
    import workloads

    names = argv or list(WORKLOAD_NAMES)
    references = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    for name in names:
        entries = {}
        for input_seed in range(workloads.INPUT_SEEDS):
            workload = workloads.make_workload(name, input_seed, OUT / f"references-{name}")
            outcome = workload.run(workload.setup())
            entries[workloads.reference_key(workload)] = workloads.reference_of(outcome)
            print(
                f"{name} seed {input_seed}: {len(outcome.ops)} operations"
                f" in {outcome.timed_s:.2f} s",
                flush=True,
            )
            if not workload.seeded:
                break
        shutil.rmtree(OUT / f"references-{name}", ignore_errors=True)
        references[name] = entries
        REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

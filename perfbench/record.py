"""Record, or re-check, the stored reference digests of ``reference.json``.

Usage, from the root of a checkout::

    python3 perfbench/record.py record            # default + held-out seed
    python3 perfbench/record.py check --engine-mode fastforward

``record`` runs every workload's reference pass (event engine, one
in-process worker, local backend) for :data:`SEEDS` and writes the
per-cell result digests and figure-output digests. Re-record only when
a change is meant to move result bits, and say so in the change.
``check`` runs the same passes, optionally under another engine mode,
and reports every (workload, seed) whose digests differ from the
stored ones; it exits with status 1 if any do.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent

#: The library's default seed and one seed held out while tuning.
SEEDS = (1, 2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("record", "check"))
    parser.add_argument("--engine-mode", default="event")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE.parent / "src"))
    from measure import REFERENCE_FILE
    from workloads import WORKLOADS

    stored = json.loads(REFERENCE_FILE.read_text())
    differing = []
    for name, workload_class in WORKLOADS.items():
        for seed in SEEDS:
            record = workload_class(seed).reference_pass(args.engine_mode)
            entry = {"cells": record.cells, "outputs": record.outputs}
            if args.action == "record":
                stored.setdefault(name, {})[str(seed)] = entry
            elif stored.get(name, {}).get(str(seed)) != entry:
                differing.append(f"{name} seed {seed}")
            print(f"{name} seed {seed}: {len(record.cells)} cells, "
                  f"{record.counts}", flush=True)
    if args.action == "record":
        REFERENCE_FILE.write_text(json.dumps(stored, indent=1) + "\n")
        print(f"wrote {REFERENCE_FILE.name}")
        return 0
    for item in differing:
        print(f"DIGESTS DIFFER: {item} under engine mode {args.engine_mode}")
    if not differing:
        print(f"all stored digests reproduced under engine mode "
              f"{args.engine_mode}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the output digests that ``run.py`` checks passes against.

Usage, from the root of the repository::

    python3 perfbench/record_digests.py            # every workload
    python3 perfbench/record_digests.py read_shuffle

Runs one pass per workload and stored seed and rewrites
``perfbench/digests.json``.  Re-record only for a change that is meant
to alter simulated outputs; a speed-only change must match the stored
digests as they are.  A pass with a failed experiment or a broken
invariant is not recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import suite  # noqa: E402

#: The seeds whose digests are stored.
SEEDS = range(21)


def main(names) -> int:
    stored = suite.load_digests()
    for name in names or suite.WORKLOADS:
        by_seed = {}
        for seed in SEEDS:
            workload = suite.WORKLOADS[name](seed)
            _, outcomes = workload.run_pass()
            _, failed, digests = suite.tally(workload, [outcomes])
            if failed:
                for out in outcomes:
                    print(out.name, out.error, out.failures, file=sys.stderr)
                return 1
            by_seed[str(seed)] = digests
            print(name, seed, " ".join(digests), flush=True)
        stored[name] = by_seed
    lines = {name: {seed: " ".join(d) for seed, d in by_seed.items()}
             for name, by_seed in stored.items()}
    suite.DIGESTS_PATH.write_text(json.dumps(lines, indent=1, sort_keys=True)
                                  + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

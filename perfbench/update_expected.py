"""Store output digests from benchmark logs into ``expected.json``.

Usage::

    python3 perfbench/run.py --workload paper_cold --seed 0 --seconds 30 --trace 0 > log
    python3 perfbench/update_expected.py log [more logs...]

Only logs of runs whose checks all passed are taken: a digest is
stored when the run agreed with itself (every repetition produced the
same records and warm-pass outputs).  Each workload's entry carries the
parameter fingerprint, so the benchmark ignores digests recorded under
other parameters.
"""

from __future__ import annotations

import json
import sys

from common import EXPECTED_PATH, fingerprint, load_expected


def main(paths: list[str]) -> int:
    expected = load_expected()
    for path in paths:
        lines = open(path, encoding="utf-8").read().splitlines()
        result = json.loads(lines[-1])
        digests = [json.loads(line[len("digests "):]) for line in lines
                   if line.startswith("digests ")]
        if not result["correct"] or not digests:
            print(f"skipping {path}: run not correct", file=sys.stderr)
            continue
        entry = digests[-1]
        workload = entry.pop("workload")
        seed, seconds = entry.pop("seed"), entry.pop("seconds")
        key = f"{seed}:{seconds}" if workload == "service_mix" else str(seed)
        stored = expected.setdefault(workload, {})
        if stored.get("fingerprint") != fingerprint(workload):
            stored.clear()
            stored["fingerprint"] = fingerprint(workload)
        stored.setdefault("digests", {})[key] = entry
    EXPECTED_PATH.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Oracle output check: digests of per-cell counters and rendered text.

Every pass is checked against digests produced by the interpreted path
(``kernel="interpreted"``).  ``digests.json`` holds them, recorded on the
commit that added the benchmark, for the default seed and a held-out seed;
for any other seed the oracle is computed once per run, before timing
starts.

Re-record ``digests.json`` (only when a change is meant to alter results)::

    PYTHONPATH=src python3 perfbench/oracle.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

#: The registry's own seed: the CLI's output at this seed is the paper's.
DEFAULT_SEED = 0
#: A seed not used while the benchmark was written.
HELD_OUT_SEED = 11


def digest_of(value) -> str:
    """Stable digest of one cell result (a dataclass) or of text."""
    if dataclasses.is_dataclass(value):
        value = json.dumps(dataclasses.asdict(value), sort_keys=True)
    return hashlib.sha256(value.encode()).hexdigest()[:16]


def digests(output) -> Dict:
    """``{"cells": {cell: digest}, "text": digest}`` of one pass output."""
    return {"cells": {cell: digest_of(result)
                      for cell, result in output.cells.items()},
            "text": digest_of(output.text)}


def recorded(workload: str, seed: int) -> Optional[Dict]:
    """The recorded digests of ``(workload, seed)``, if any."""
    with open(DIGESTS_PATH) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def expected_digests(wl) -> Tuple[Dict, str]:
    """The digests ``wl``'s passes must match, and where they came from."""
    found = recorded(wl.name, wl.seed)
    if found is not None:
        return found, "recorded"
    return digests(wl.oracle()), "computed"


def check(output, expected: Dict) -> Tuple[int, int, List[str]]:
    """Compare one pass with the oracle: ``(attempted, failed, problems)``.

    Every cell counts once, plus the pass's rendered text.  A cell whose
    counters differ from the oracle's, or that is missing or unexpected,
    fails.
    """
    got = digests(output)
    names = sorted(set(expected["cells"]) | set(got["cells"]))
    problems = [f"cell {name}: digest {got['cells'].get(name)} != oracle "
                f"{expected['cells'].get(name)}"
                for name in names
                if got["cells"].get(name) != expected["cells"].get(name)]
    if got["text"] != expected["text"]:
        problems.append(f"rendered text: digest {got['text']} != oracle "
                        f"{expected['text']}")
    return len(names) + 1, len(problems), problems


def record() -> Dict:
    """Compute the oracle digests of every workload at both seeds."""
    import passes

    work = os.path.join(HERE, ".work", "record")
    table: Dict = {}
    try:
        for name in passes.WORKLOADS:
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                wl = passes.make(name, seed)
                wl.cache_dir = passes.fill_cache(wl,
                                                 os.path.join(work, name))
                table.setdefault(name, {})[str(seed)] = digests(wl.oracle())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return table


if __name__ == "__main__":
    record()

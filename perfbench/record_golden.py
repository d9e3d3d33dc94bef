"""Record the sha256 of every benchmark game's trace bytes in golden.json.

Run from the root of a checkout of the commit whose traces are the
reference (the seed commit)::

    python3 perfbench/record_golden.py

It plays every game of every workload, and every decoy variant of
``fair-battery``, at the horizons H and H/2 that ``run.py`` plays.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import workloads
    from limitgames import arena, scenario

    golden: dict[str, dict[str, dict[str, str]]] = {}
    keys = {"diagonal": 0, "phased": 0}
    keys.update({f"fair-battery/{v}": v for v in range(workloads.VARIANTS)})
    for key, seed in keys.items():
        workload = key.split("/")[0]
        entry = golden.setdefault(key, {})
        for game in workloads.build(workload, seed, root):
            for horizon in (game.horizon // 2, game.horizon):
                run = arena.run_game(scenario.parse_scenario(game.at(horizon)))
                text = run.trace.to_jsonl().encode()
                entry.setdefault(game.name, {})[str(horizon)] = hashlib.sha256(text).hexdigest()
        print(key, file=sys.stderr)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

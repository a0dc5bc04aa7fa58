"""Record the ``qwalk reproduce`` check verdicts that the reproduce workload
must see again.

    python3 perfbench/record_verdicts.py

Run it at a commit whose verdicts are the reference; it rewrites
``perfbench/verdicts.json``. Panels 3A, 3B and 3C depend on ``--seed``, so
they are recorded for every seed in PANEL_SEEDS; the workload maps its own
seed onto that list. The by-design FAILs (2A and 2B) are recorded as FAIL.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

PANEL_SEEDS = list(range(16))
SEEDED = ("3A", "3B", "3C")


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    import workloads
    from qwalk import cli

    def verdicts(figure, seed, out):
        code, fig_dir = workloads.run_panel(figure, seed, out)
        if code != 0:
            raise SystemExit(f"panel {figure} seed {seed} exited {code}")
        summary = json.loads((fig_dir / "summary.json").read_text())
        return {c["check"]: bool(c["pass"]) for c in summary["checks"]}

    with tempfile.TemporaryDirectory(dir=here.parent) as tmp:
        out = Path(tmp)
        table = {
            "panel_seeds": PANEL_SEEDS,
            "seed_independent": {f: verdicts(f, 0, out) for f in cli.FIGURE_IDS if f not in SEEDED},
            "by_seed": {str(s): {f: verdicts(f, s, out) for f in SEEDED} for s in PANEL_SEEDS},
        }
    (here / "verdicts.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate ``reference.json``, the expected outputs the benchmark checks.

Run from the repository root, only when the package's outputs are meant
to change (the digests pin detections, certificates and refinements of
the commit that generated them):

    python3 perfbench/make_reference.py

It takes a few minutes on one core (200 seeds at n = 1537 dominate).
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    ref = {
        workloads.CliPipeline.name: workloads.reference_cli(),
        workloads.Refine.name: workloads.reference_refine(),
        workloads.McLadder.name: workloads.reference_mc_ladder(),
    }
    (HERE / "reference.json").write_text(json.dumps(ref, sort_keys=True, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()

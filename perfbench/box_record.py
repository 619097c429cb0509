"""Stored invariant box of the bundled b747 masker, for beta = 1 and 100.

The design-scan and ensemble workloads take the masker box as input instead
of integrating the attractor (600 s of RK4 per mask).  This script makes
that input with the program's own ``calibrate_mask`` on the bundled b747
scenario (about 80 s):

    python3 perfbench/box_record.py           # recompute, report drift, keep the file
    python3 perfbench/box_record.py --write   # recompute and overwrite the file

The chaotic integration amplifies any reordering of floating-point
operations, so a recomputed sigma can differ from the stored one by a few
per cent without any bug; the report mode prints the drift and never fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import env

RECORD = Path(__file__).resolve().parent / "box_record.json"
COMMAND = "python3 perfbench/box_record.py --write"


def load() -> dict:
    """The stored record, keyed by beta: ``{1.0: {...}, 100.0: {...}}``."""
    data = json.loads(RECORD.read_text())
    return {float(r["beta"]): r for r in data["records"]}


def compute() -> dict:
    from chaosmask import scenario_file

    cfg = scenario_file.load_scenario_file("b747")
    records = []
    for apply_beta in (False, True):
        mask = scenario_file.calibrate_mask(scenario_file.build_mask(cfg, apply_beta),
                                            cfg, apply_beta)
        beta = float(cfg["mask"].get("beta", 1.0)) if apply_beta else 1.0
        records.append({"beta": beta, "sigma": mask.sigma.tolist(),
                        "d_bound": mask.d_bound, "ell": mask.ell})
    return {"scenario": "b747", "git_rev": env.git_rev(), "command": COMMAND,
            "records": records}


def drift(stored: dict, fresh: dict) -> list[str]:
    lines = []
    for old, new in zip(stored["records"], fresh["records"]):
        pairs = [(f"sigma_{i + 1}", a, b) for i, (a, b) in
                 enumerate(zip(old["sigma"], new["sigma"]))]
        pairs += [("d_bound", old["d_bound"], new["d_bound"]),
                  ("ell", old["ell"], new["ell"])]
        for name, a, b in pairs:
            lines.append(f"beta={old['beta']:g} {name}: stored {a:.10g} "
                         f"recomputed {b:.10g} drift {(b - a) / a:+.3%}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help="overwrite the stored record instead of reporting drift")
    args = ap.parse_args(argv)
    env.prepare()
    fresh = compute()
    if args.write or not RECORD.is_file():
        RECORD.write_text(json.dumps(fresh, indent=2) + "\n")
        print(f"wrote {RECORD}")
        return 0
    stored = json.loads(RECORD.read_text())
    print(f"stored record from {stored['git_rev']}, recomputed at {fresh['git_rev']}")
    print("\n".join(drift(stored, fresh)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

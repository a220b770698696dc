"""CLI for the experiment suite: ``python -m repro.bench.runner E1 E2``.

Prints each experiment's table and its paper-vs-measured verdicts; exits
non-zero if any claim diverges.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.bench.experiments import (EXPERIMENTS, SEEDED_EXPERIMENTS,
                                     run_experiment)


def report_to_dict(report) -> dict:
    return {
        "experiment": report.experiment_id,
        "description": report.description,
        "headers": list(report.headers),
        "rows": [list(row) for row in report.rows],
        "claims": [{
            "claim": claim.claim,
            "measured": claim.measured,
            "holds": claim.holds,
        } for claim in report.claims],
        "extras": {key: value for key, value in report.extras.items()
                   if isinstance(value, (int, float, str, bool, list,
                                         dict, type(None)))},
        "reproduced": report.all_claims_hold,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the paper's experiments on the simulated testbed.")
    parser.add_argument(
        "experiments", nargs="*", default=[],
        help=f"experiment ids (default: all of {sorted(EXPERIMENTS)})")
    parser.add_argument("--seed", type=int, default=2000,
                        help="site-generation seed (where applicable)")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="also write machine-readable results here")
    args = parser.parse_args(argv)

    ids = [e.upper() for e in args.experiments] or sorted(EXPERIMENTS)
    failures = 0
    collected = []
    for experiment_id in ids:
        kwargs = {}
        if experiment_id in SEEDED_EXPERIMENTS:
            kwargs["seed"] = args.seed
        report = run_experiment(experiment_id, **kwargs)
        print(report.render())
        print()
        collected.append(report_to_dict(report))
        if not report.all_claims_hold:
            failures += 1
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "experiments": collected},
                      handle, indent=2, sort_keys=True)
        print(f"wrote {args.json_path}")
    if failures:
        print(f"{failures} experiment(s) diverged from the paper.")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

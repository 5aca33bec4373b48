#!/usr/bin/env python3
"""Check that every simulated statistic repeats exactly.

Usage (from the repository root)::

    python3 perfbench/check_fingerprint.py                 # all workloads
    python3 perfbench/check_fingerprint.py topk-1k --seed 7

For each workload, runs ``perfbench/run.py`` (minimum repetitions,
untraced) under two ``PYTHONHASHSEED`` values and compares the printed
fingerprints.  Within each run, ``run.py`` already fails any repetition
whose simulated outputs differ from the first.  For the default seed
the fingerprint is also compared with the one committed in
``perfbench/fingerprints.json``, so a change can show that every
simulated statistic is identical to the committed reference rather
than assert it.  ``--update`` rewrites that file from the current code.

Exit code 0 when everything matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "fingerprints.json"
HASH_SEEDS = ("0", "12345")


def fingerprint(workload: str, seed: int, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    for line in proc.stdout.splitlines():
        if line.startswith("fingerprint "):
            return line.split()[1]
    raise SystemExit(f"{workload}: run.py printed no fingerprint")


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT / "src")]
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--update", action="store_true",
                        help="rewrite the committed reference")
    args = parser.parse_args(argv)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() \
        else {}
    ok = True
    for workload in args.workloads:
        prints = {hs: fingerprint(workload, args.seed, hs)
                  for hs in HASH_SEEDS}
        same = len(set(prints.values())) == 1
        ok &= same
        line = (f"{workload} seed {args.seed}: "
                f"{'identical' if same else 'DIFFERENT'} across "
                f"PYTHONHASHSEED {', '.join(HASH_SEEDS)}")
        fp = prints[HASH_SEEDS[0]]
        if args.seed == DEFAULT_SEED:
            if args.update:
                reference[workload] = fp
            elif reference.get(workload) != fp:
                ok = False
                line += "; DIFFERS from perfbench/fingerprints.json"
            else:
                line += "; matches perfbench/fingerprints.json"
        print(f"{line}\n  {fp}")
    if args.update:
        REFERENCE.write_text(json.dumps(reference, indent=1,
                                        sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

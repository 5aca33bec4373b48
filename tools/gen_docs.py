#!/usr/bin/env python3
"""Generate every catalogue page under docs/ from its source of truth.

Usage::

    python tools/gen_docs.py            # (re)write every page
    python tools/gen_docs.py --check    # exit 1 if any page is out of date

:data:`PAGES` maps each generated page to the renderer of its text:
the scenario, fault, directory-backend, sweep and experiment registries,
the committed benchmark baselines, and the reprolint rule registry.
The CLI ``list`` commands render the same metadata, so no catalogue can
drift from the code.  This script stamps the generated-file header
under each page's title; the renderers never name their generator.  A
tier-1 test (and the CI docs job, through ``tools/check_docs.py``)
asserts every checked-in page matches.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable

REPO = Path(__file__).resolve().parent.parent
BASELINES = REPO / "benchmarks" / "baselines"

sys.path[:0] = [str(REPO / "src"), str(REPO)]

from repro.directory import directory_markdown  # noqa: E402
from repro.experiment import experiments_markdown  # noqa: E402
from repro.faults import faults_markdown  # noqa: E402
from repro.scenarios import catalog_markdown  # noqa: E402
from repro.sweep import sweeps_markdown  # noqa: E402
from tools.reprolint.catalog import rules_markdown  # noqa: E402

HEADER = (
    "<!-- GENERATED FILE — do not edit by hand.\n"
    "     Regenerate with: python tools/gen_docs.py -->\n"
)

_BENCH_PREAMBLE = """\
# Benchmark baselines

Every file under `benchmarks/baselines/` pins the wall-time reference
for one gated benchmark.  CI's blocking `bench-gate` job re-runs the
benchmarks, then `tools/check_bench_regression.py` compares each
metric below against its committed reference and **fails the build**
when a metric exceeds `baseline x max_factor` (scaled by a CPU
calibration probe, so a slower runner gets proportional headroom — a
baseline's `calibration_s` records the probe time on the machine that
committed it).

## Refreshing the numbers

Run the gated benchmarks, then rewrite the baselines from the fresh
results and commit the diff deliberately — it is the new reference:

```sh
python -m pytest benchmarks/test_query_index.py \\
    benchmarks/test_sweep_smoke.py \\
    benchmarks/test_ingest.py \\
    benchmarks/test_engine_eventloop.py \\
    benchmarks/test_directory.py -q
python tools/check_bench_regression.py --update
```

One-off noisy runners can widen the allowance without touching the
committed files via the `BENCH_REGRESSION_FACTOR` environment
variable.
"""


def _baseline_markdown(path: Path) -> str:
    doc = json.loads(path.read_text(encoding="utf-8"))
    lines = [f"## `{path.stem}`", ""]
    description = doc.get("description")
    if description:
        lines.extend([description, ""])
    lines.append(f"- **Baseline file:** `benchmarks/baselines/{path.name}`")
    lines.append(f"- **Gated results document:** `results/{doc['source']}`")
    lines.append(f"- **Allowed factor:** {doc.get('max_factor', '(default)')}")
    calibration = doc.get("calibration_s")
    if calibration is not None:
        lines.append(f"- **Baseline machine calibration:** {calibration} s")
    lines.append("")
    lines.append("| metric | baseline |")
    lines.append("|---|---|")
    for metric, value in sorted(doc.get("metrics", {}).items()):
        lines.append(f"| `{metric}` | {value} |")
    return "\n".join(lines) + "\n"


def benchmarks_markdown() -> str:
    """The ``docs/BENCHMARKS.md`` text, from the committed baselines.

    The baseline documents are the single source of truth for the CI
    benchmark-regression gate (``tools/check_bench_regression.py``),
    so the documented numbers cannot drift from the gated ones.
    """
    sections = [_BENCH_PREAMBLE]
    for path in sorted(BASELINES.glob("*.json")):
        sections.append(_baseline_markdown(path))
    return "\n".join(sections)


#: generated page (repo-relative) → renderer of its text, title first
PAGES: dict[str, Callable[[], str]] = {
    "docs/SCENARIOS.md": catalog_markdown,
    "docs/FAULTS.md": faults_markdown,
    "docs/DIRECTORIES.md": directory_markdown,
    "docs/SWEEPS.md": sweeps_markdown,
    "docs/EXPERIMENTS.md": experiments_markdown,
    "docs/BENCHMARKS.md": benchmarks_markdown,
    "docs/LINTING.md": rules_markdown,
}


def render(target: str) -> str:
    """The committed text of ``target``: title, header, then the rest."""
    title, body = PAGES[target]().split("\n\n", 1)
    return f"{title}\n\n{HEADER}\n{body}"


def main(argv: list[str]) -> int:
    check = "--check" in argv
    stale = []
    for target in PAGES:
        path = REPO / target
        text = render(target)
        if not check:
            path.write_text(text, encoding="utf-8")
            print(f"wrote {target}")
        elif path.exists() and path.read_text(encoding="utf-8") == text:
            print(f"{target} is up to date")
        else:
            stale.append(target)
            print(f"{target} is out of date", file=sys.stderr)
    if stale:
        print("run: python tools/gen_docs.py", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

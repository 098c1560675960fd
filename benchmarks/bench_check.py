"""Static-analyzer driver benchmark: cold vs warm vs ``--diff``.

Copies the analyzer's slice of the repository into a scratch tree and
runs :func:`repro.check.driver.check_paths` (the engine behind
``repro check --flow --inter``, the one whole-project mode: every tier,
including the RC6xx concurrency rules) as one row, **check_full**.
It measures four legs:

- **cold, 1 worker** and **cold, 4 workers** — empty caches, full
  summary computation, fanned-out lint;
- **warm** — unchanged tree, which must short-circuit on the tree key
  without parsing a single file;
- **diff** — one helper file touched, which must re-analyze only that
  file plus whatever the reverse call graph invalidates.

Gates:

- zero findings (the repo-wide clean gate, same as CI);
- every leg's findings byte-identical (worker count and cache state
  must not change output);
- warm speedup (cold / warm wall time) at or above the ``check_full``
  floor in ``benchmarks/perf_budget.json``: a warm rerun that misses
  the tree key (or rebuilds the summaries or the conc index) sinks the
  ratio;
- the diff leg re-analyzes fewer than all files.

Results land in ``BENCH_check.json`` at the repository root.

Run standalone (full tree)::

    PYTHONPATH=src python benchmarks/bench_check.py

or in CI smoke mode (the analyzer's own packages only, same schema)::

    PYTHONPATH=src python benchmarks/bench_check.py --smoke

Also collectable via pytest (runs the smoke shape and asserts the
gates)::

    PYTHONPATH=src python -m pytest benchmarks/bench_check.py
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_check.json"
BUDGET_PATH = pathlib.Path(__file__).resolve().parent / "perf_budget.json"

#: Copied into the scratch tree.  Smoke keeps the bench inside the
#: analyzer's own packages; full is the whole repo-wide gate.
SMOKE_GLOBS = (
    "src/repro/check/**/*.py",
    "tests/test_check*.py",
)
FULL_GLOBS = (
    "src/**/*.py",
    "tests/**/*.py",
)
#: Touched for the ``--diff`` leg (must exist in both shapes).
TOUCH_FILE = "src/repro/check/callgraph.py"
#: The one benchmark row (its budget key in ``perf_budget.json``).
ROW = "check_full"


def _materialize(globs, scratch: pathlib.Path) -> int:
    copied = 0
    for pattern in globs:
        for src in sorted(REPO_ROOT.glob(pattern)):
            rel = src.relative_to(REPO_ROOT)
            dst = scratch / rel
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(src, dst)
            copied += 1
    return copied


def _wire(findings) -> str:
    return json.dumps([(f.rule_id, f.path, f.line, f.col, f.message)
                       for f in findings], sort_keys=True)


def _timed(paths, **kwargs):
    from repro.check.driver import check_paths

    start = time.perf_counter()
    result = check_paths(paths, **kwargs)
    return time.perf_counter() - start, result


def load_floor(mode: str, row: str) -> float:
    budgets = json.loads(BUDGET_PATH.read_text())
    return budgets[mode][row]


def _run_row(paths, scratch: pathlib.Path, mode: str) -> dict:
    """Cold, warm and diff legs of the ``check_full`` row."""
    cold_1w_s, cold_1w = _timed(paths, workers=1, cache_dir=".c1")
    cold_4w_s, cold_4w = _timed(paths, workers=4, cache_dir=".c4")
    warm_s, warm = _timed(paths, workers=4, cache_dir=".c4")
    warm_speedup = cold_4w_s / warm_s if warm_s > 0 else float("inf")
    touched = scratch / TOUCH_FILE
    touched.write_text(touched.read_text(encoding="utf-8")
                       + "\n# bench-check diff probe\n",
                       encoding="utf-8")
    diff_s, diff = _timed(paths, workers=4, cache_dir=".c4")
    cold_wire = _wire(cold_4w.findings)
    return {
        "cold_1w_s": round(cold_1w_s, 4),
        "cold_4w_s": round(cold_4w_s, 4),
        "warm_s": round(warm_s, 4),
        "warm_speedup": round(warm_speedup, 2),
        "warm_speedup_floor": load_floor(mode, ROW),
        "warm_tree_hit": warm.tree_hit,
        "findings": len(cold_4w.findings),
        "identical": {
            "cold_1w_vs_cold_4w": _wire(cold_1w.findings) == cold_wire,
            "cold_vs_warm": cold_wire == _wire(warm.findings),
            "cold_vs_diff": cold_wire == _wire(diff.findings),
        },
        "diff_s": round(diff_s, 4),
        "diff_reanalyzed": len(diff.analyzed),
    }


def run_bench(smoke=False, out=DEFAULT_OUT):
    mode = "smoke" if smoke else "full"
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="bench-check-"))
    prev_cwd = os.getcwd()
    try:
        n_files = _materialize(SMOKE_GLOBS if smoke else FULL_GLOBS,
                               scratch)
        os.chdir(scratch)  # relative paths -> CLI-identical module names
        paths = ["src", "tests"]

        rows = {ROW: _run_row(paths, scratch, mode)}
    finally:
        os.chdir(prev_cwd)
        shutil.rmtree(scratch, ignore_errors=True)

    payload = {"mode": mode, "files": n_files, "rows": rows}
    for row, stats in rows.items():
        print(f"check bench [{row}] ({mode}, {n_files} files): "
              f"cold 1w {stats['cold_1w_s']:.2f}s  "
              f"cold 4w {stats['cold_4w_s']:.2f}s  "
              f"warm {stats['warm_s']:.3f}s  diff {stats['diff_s']:.2f}s")
        print(f"  warm speedup {stats['warm_speedup']:.1f}x "
              f"(floor {stats['warm_speedup_floor']:.1f}x), "
              f"diff re-analyzed {stats['diff_reanalyzed']} file(s)")
    out = pathlib.Path(out)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[saved to {out}]")
    return payload


def check_gate(payload):
    """Human-readable gate failures; empty means pass."""
    failures = []
    for row, stats in payload["rows"].items():
        if stats["findings"] != 0:
            failures.append(
                f"[{row}] reported {stats['findings']} finding(s); "
                f"the repo-wide gate requires zero")
        for leg, same in stats["identical"].items():
            if not same:
                failures.append(f"[{row}] output differs across {leg}")
        if not stats["warm_tree_hit"]:
            failures.append(
                f"[{row}] warm rerun missed the whole-tree cache key")
        if stats["warm_speedup"] < stats["warm_speedup_floor"]:
            failures.append(
                f"[{row}] warm speedup {stats['warm_speedup']:.1f}x is "
                f"below the {stats['warm_speedup_floor']:.1f}x floor "
                f"(cold {stats['cold_4w_s']:.2f}s, "
                f"warm {stats['warm_s']:.3f}s)")
        if stats["diff_reanalyzed"] >= payload["files"]:
            failures.append(
                f"[{row}] diff leg re-analyzed every file "
                f"({stats['diff_reanalyzed']}/{payload['files']}): "
                f"invalidation is not incremental")
    return failures


# ----------------------------------------------------------------------
# pytest entry point (smoke shape: cheap enough for CI)
# ----------------------------------------------------------------------
def test_incremental_driver_budget(tmp_path):
    payload = run_bench(smoke=True, out=tmp_path / "BENCH_check.json")
    failures = check_gate(payload)
    assert not failures, "; ".join(failures)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="analyzer packages only (CI mode), same JSON schema",
    )
    parser.add_argument(
        "--out", default=str(DEFAULT_OUT),
        help=f"output JSON path (default: {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)
    payload = run_bench(smoke=args.smoke, out=args.out)
    failures = check_gate(payload)
    for line in failures:
        print(f"GATE FAIL: {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

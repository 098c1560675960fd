"""Shared fixtures for the benchmark suite.

Each ablation, co-tenant and model-accuracy benchmark regenerates one
table and persists it under ``benchmarks/results/`` so the regenerated
data survives the pytest run (stdout is captured).  Tables also print,
so ``pytest -s`` shows them live.  The figure tables there are written
by ``repro figures --out benchmarks/results``.
"""

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def save_figure():
    """Persist a FigureData table to benchmarks/results/<name>.txt."""

    def _save(fig):
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{fig.name}.txt"
        text = fig.to_text()
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")
        return path

    return _save


def pytest_terminal_summary(terminalreporter):
    if RESULTS_DIR.exists():
        files = sorted(RESULTS_DIR.glob("*.txt"))
        if files:
            terminalreporter.write_line("")
            terminalreporter.write_line(
                f"regenerated figure tables in {RESULTS_DIR}:"
            )
            for f in files:
                terminalreporter.write_line(f"  {f.name}")

"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one artifact of the paper (a Table-1 row
group or a figure-level guarantee), named in its file name and docstring.
Besides the pytest-benchmark timings (wall-clock of the simulation itself),
each module prints a small report with the *model-level* quantities the paper
talks about (rounds, epochs, bits per agent), in which its claims are stated.
"""

from __future__ import annotations

import pytest


@pytest.hookimpl(trylast=True)
def pytest_collection_modifyitems(config, items):
    """Keep the model-level report tests alive under ``--benchmark-only``.

    pytest-benchmark skips every test that does not use its ``benchmark``
    fixture when ``--benchmark-only`` is passed.  The table/figure report tests
    in this directory measure *model-level* quantities (rounds, epochs, bits)
    rather than wall-clock time, but they are exactly what regenerates the
    paper's artifacts, so they must run in the benchmark pass as well.
    """
    try:
        benchmark_only = config.getoption("--benchmark-only")
    except (KeyError, ValueError):  # pragma: no cover - plugin not installed
        return
    if not benchmark_only:
        return
    for item in items:
        if "benchmark" in getattr(item, "fixturenames", ()):
            continue
        item.own_markers = [m for m in item.own_markers if m.name != "skip"]


_REPORT_PATH = None


def pytest_sessionstart(session):
    """Start a fresh model-level report file for this benchmark session."""
    global _REPORT_PATH
    import os

    _REPORT_PATH = os.path.join(os.path.dirname(__file__), "reports_last_run.txt")
    with open(_REPORT_PATH, "w", encoding="utf-8") as fh:
        fh.write("Model-level reports regenerated by `pytest benchmarks/ --benchmark-only`\n")
        fh.write("(each block's module docstring names the paper claim it checks)\n")


def report(title: str, lines) -> None:
    """Emit a compact report block.

    The block goes to the captured stdout (visible with ``-s`` or on failure)
    and is appended to ``benchmarks/reports_last_run.txt`` so a plain
    ``pytest benchmarks/ --benchmark-only`` run leaves the regenerated tables
    on disk next to the timing numbers.
    """
    banner = "=" * len(title)
    text = "\n".join(str(line) for line in lines)
    block = f"\n{title}\n{banner}\n{text}\n"
    print(block)
    if _REPORT_PATH is not None:
        with open(_REPORT_PATH, "a", encoding="utf-8") as fh:
            fh.write(block)


def registry_table(title: str, rows, time_unit: str):
    """Render runner-produced sweep rows as a Table-1 comparison.

    ``rows`` is ``{registry name: {k: time}}`` as returned by
    :func:`repro.runner.collect_series`; display names and claimed bounds come
    from the algorithm registry, so the table stays in sync with it.
    """
    from repro.analysis.tables import comparison_table
    from repro.runner import get_algorithm

    display_rows = {get_algorithm(n).display: series for n, series in rows.items()}
    bounds = {get_algorithm(n).display: get_algorithm(n).claimed_bound for n in rows}
    return comparison_table(title, display_rows, time_unit, bounds)


@pytest.fixture(scope="session")
def record_rows():
    """Collect (experiment, row) pairs so a session summary can be printed."""
    rows = []
    yield rows
    if rows and _REPORT_PATH is not None:
        with open(_REPORT_PATH, "a", encoding="utf-8") as fh:
            fh.write("\n==== benchmark summary (model-level metrics) ====\n")
            for name, row in rows:
                fh.write(f"  [{name}] {row}\n")

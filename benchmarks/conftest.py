"""Shared helpers for the benchmark harness.

Every benchmark regenerates one figure or quantified claim from the paper
(see DESIGN.md's experiment index) and prints the reproduced table/series.
Run with::

    pytest benchmarks/ --benchmark-only -s

The printed output is the reproduction artifact; the pytest-benchmark
timings additionally document the harness cost itself.
"""

from __future__ import annotations

import pytest

from repro.workloads.generator import percentile  # noqa: F401  (re-export)


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--backend",
        action="store",
        default="aurora",
        choices=("aurora", "taurus"),
        help="storage backend for the backend-aware benches (C1/C6/C7)",
    )


@pytest.fixture
def bench_backend(request) -> str:
    """The storage backend selected with ``--backend`` (default aurora)."""
    return request.config.getoption("--backend")


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Render a fixed-width table to stdout (the bench report format)."""
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print()
    print(f"=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))


def fmt(value: float, digits: int = 3) -> str:
    return f"{value:.{digits}f}"

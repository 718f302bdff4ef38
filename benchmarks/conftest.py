"""Shared helper for the benchmarks.

Every benchmark prints a small "paper vs measured" table (visible with
``pytest -s`` and in captured output on failure) and stores the same
numbers in ``benchmark.extra_info`` for the JSON report.  The workloads
of the paper's experiments live in :mod:`repro.experiments`.
"""

from __future__ import annotations


def report(benchmark, title: str, rows):
    """Record and print a paper-vs-measured comparison.

    *rows* is a list of (label, paper_value, measured_value) tuples.
    """
    lines = [f"\n== {title} =="]
    for label, paper, measured in rows:
        lines.append(f"  {label:<44} paper: {paper!s:>12}  measured: {measured!s:>12}")
        if benchmark is not None:
            benchmark.extra_info[label] = str(measured)
    text = "\n".join(lines)
    print(text)
    return text

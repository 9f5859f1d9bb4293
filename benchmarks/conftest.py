"""Shared benchmark configuration.

Each benchmark regenerates one of the paper's tables or figures and
prints the rows/series it plots. Runs use the utilization-preserving
scale-down (``REPRO_BENCH_SCALE``, default 20; see DESIGN.md) and a
reduced duration (``REPRO_BENCH_DURATION``, default 15 simulated
seconds vs the paper's 180), so the full suite completes on a laptop.

Set ``REPRO_BENCH_SCALE=1 REPRO_BENCH_DURATION=180`` for paper scale.

Sweep-based benchmarks fan their experiment points over
``REPRO_BENCH_JOBS`` worker processes (default 1 = serial; results are
identical either way — see docs/PERFORMANCE.md).
"""

import os
import sys

import pytest

# Make the printed figures visible in the benchmark run's output.
_REPORT_LINES = []


def emit(text: str) -> None:
    """Print a figure block and remember it for the final summary."""
    print("\n" + text, flush=True)
    _REPORT_LINES.append(text)


@pytest.fixture
def bench_duration() -> float:
    return float(os.environ.get("REPRO_BENCH_DURATION", "15"))


@pytest.fixture
def bench_jobs() -> int:
    from repro.bench.parallel import default_jobs

    return default_jobs()


@pytest.fixture
def emit_report():
    return emit


@pytest.fixture
def run_spec(benchmark, bench_duration, bench_jobs, emit_report):
    """Run one catalog experiment the way ``repro report`` would.

    ``bench_catalog.py`` is parametrized over the spec catalog
    (``repro.report.catalog``): the fixture runs the spec's full grid
    at the bench duration, prints its markdown table, and asserts the
    spec's registered shape checks — the same checks that decide the
    generated EXPERIMENTS.md verdicts.
    """
    from repro.report import assert_records
    from repro.report.render import render_table

    def run(spec, duration: float = None, **extra_overrides):
        overrides = {"duration": bench_duration if duration is None else duration}
        overrides.update(extra_overrides)
        records = benchmark.pedantic(
            lambda: spec.run(jobs=bench_jobs, overrides=overrides),
            rounds=1,
            iterations=1,
        )
        emit_report(f"== {spec.section_title} ==\n\n" + render_table(spec, records))
        assert_records(spec, records, overrides=overrides)
        return records

    return run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _REPORT_LINES:
        terminalreporter.section("reproduced figures and tables")
        for block in _REPORT_LINES:
            terminalreporter.write_line(block)
            terminalreporter.write_line("")

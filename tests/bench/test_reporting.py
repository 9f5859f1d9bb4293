"""Tests for report formatting."""

import math

from repro.bench.reporting import format_breakdown, format_table


def test_format_table_alignment_and_rule():
    text = format_table(["a", "b"], [[1, 2.5], ["x", None]])
    lines = text.splitlines()
    assert lines[1].startswith("-")
    assert "2.5" in text
    assert "-" in lines[3]  # None renders as a dash


def test_format_table_handles_nan():
    text = format_table(["v"], [[math.nan]])
    assert "nan" not in text


def test_format_breakdown_sorted_phases():
    text = format_breakdown("Table 3", {"b/P2": 20.0, "a/P1": 10.0})
    lines = text.splitlines()
    assert lines[1].strip().startswith("a/P1")
    assert "10.0 ms" in lines[1]

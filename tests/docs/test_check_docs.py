"""The docs gate: link resolution and fenced-command validation."""

from pathlib import Path

import pytest

from repro.tools.check_docs import (
    check_command,
    check_docs,
    check_links,
    fenced_command_lines,
    main,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repo_docs_pass_the_gate():
    assert check_docs(REPO_ROOT) == []


def test_main_exit_codes(tmp_path, capsys):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text("see [design](DESIGN.md)\n")
    assert main(["--root", str(tmp_path)]) == 1  # broken link
    (tmp_path / "DESIGN.md").write_text("fine\n")
    assert main(["--root", str(tmp_path)]) == 0
    capsys.readouterr()


class TestLinks:
    def test_broken_relative_link_reported(self, tmp_path):
        doc = tmp_path / "a.md"
        errors = check_links(doc, "go [here](missing.md) please")
        assert len(errors) == 1
        assert "missing.md" in errors[0]

    def test_good_external_and_anchor_links_skipped(self, tmp_path):
        (tmp_path / "b.md").write_text("x")
        text = (
            "[ok](b.md) [sec](b.md#part) [web](https://example.org) "
            "[mail](mailto:x@y.z) [frag](#local)"
        )
        assert check_links(tmp_path / "a.md", text) == []

    def test_links_resolve_relative_to_the_file(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text("x")
        doc = tmp_path / "docs" / "a.md"
        assert check_links(doc, "[up](../README.md)") == []
        assert check_links(doc, "[bad](README.md)") != []


class TestFencedCommands:
    def test_only_fenced_lines_yielded_with_continuations_joined(self):
        text = (
            "prose python -m repro bogus\n"
            "```bash\n"
            "# comment\n"
            "python -m repro list\n"
            "python -m repro trace \\\n"
            "    --system fabric\n"
            "```\n"
        )
        commands = [command for _, command in fenced_command_lines(text)]
        assert commands == [
            "python -m repro list",
            "python -m repro trace --system fabric",
        ]

    def test_valid_repro_commands_accepted(self):
        for command in (
            "python -m repro list",
            "python -m repro report --quick --jobs 2 --figures smoke --check",
            "python -m repro run fig9 table3 --jobs 4 --output results/fig9-table3.json",
            "pytest tests/report/test_pipeline.py",
            "python -m repro.tools.check_docs",
            "pip install -e .",  # out of scope -> skipped
        ):
            assert check_command(REPO_ROOT, command) == "", command

    @pytest.mark.parametrize(
        "command",
        [
            "python -m repro report --bogus-flag",
            "python -m repro no-such-subcommand",
            "python -m repro.tools.no_such_tool",
            "python no/such/script.py",
            "pytest tests/no_such_dir/",
        ],
    )
    def test_invalid_commands_rejected(self, command):
        assert check_command(REPO_ROOT, command) != "", command

    def test_placeholders_skipped(self):
        assert check_command(REPO_ROOT, "python -m repro run <experiment>") == ""

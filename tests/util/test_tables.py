"""Tests for the text-table renderer."""

from repro.util.tables import render_table


def test_alignment():
    text = render_table(["name", "n"], [["a", 1], ["bb", 22]])
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert lines[2].startswith("a")
    # numeric column right-aligned
    assert lines[2].endswith("1")
    assert lines[3].endswith("22")


def test_title():
    text = render_table(["x"], [[1]], title="My Table")
    lines = text.splitlines()
    assert lines[0] == "My Table"
    assert lines[1] == "=" * len("My Table")


def test_float_formatting():
    text = render_table(["x"], [[0.12345]])
    assert "0.12" in text


def test_wide_cells_expand_column():
    text = render_table(["h"], [["wide-cell-content"]])
    assert "wide-cell-content" in text


def test_left_alignment_columns():
    text = render_table(["a", "b"], [["x", "y"]], align_left=(0, 1))
    assert "x" in text and "y" in text

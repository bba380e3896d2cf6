"""Summary-report generator tests."""

from repro.experiments.registry import FIGURES
from repro.experiments.summary import build_summary, write_summary


def test_build_summary_includes_existing_sections(tmp_path):
    (tmp_path / "fig15.txt").write_text("fig15 body\n")
    (tmp_path / "table1.txt").write_text("table1 body\n")
    text = build_summary(tmp_path)
    assert "fig15 body" in text
    assert "table1 body" in text
    assert "Fig 15" in text


def test_build_summary_lists_missing(tmp_path):
    text = build_summary(tmp_path)
    assert "Not yet generated" in text
    assert "fig15" in text


def test_write_summary_creates_file(tmp_path):
    (tmp_path / "fig01.txt").write_text("x\n")
    path = write_summary(tmp_path)
    assert path.exists()
    assert "Fig 1" in path.read_text()


def test_summary_lists_exactly_the_registered_figures(tmp_path):
    assert all(fig.title for fig in FIGURES.values())
    missing = f"*Not yet generated: {', '.join(FIGURES)} — run"
    assert missing in build_summary(tmp_path)
    for name in FIGURES:
        (tmp_path / f"{name}.txt").write_text(f"{name} body\n")
    headings = [line[3:] for line in build_summary(tmp_path).splitlines()
                if line.startswith("## ")]
    assert headings == [fig.title for fig in FIGURES.values()]

"""CLI tests (run through main() with a tiny scale)."""

import pytest

from repro.cli import FIGURES, main
from repro.experiments.configs import SCHEMES


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "gemv" in out and "fbarre" in out and "fig15" in out


def test_run_command(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["run", "gemv", "--scheme", "barre", "--scale", "0.05",
                 "--baseline"]) == 0
    out = capsys.readouterr().out
    assert "cycles" in out and "speedup vs baseline" in out


def test_figure_command_area(capsys):
    assert main(["figure", "area"]) == 0
    out = capsys.readouterr().out
    assert "overhead_vs_l2" in out
    area = FIGURES["area"]
    assert out == area.render(area.run()) + "\n"


def test_trace_command(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    out_path = tmp_path / "trace.jsonl"
    assert main(["trace", "--app", "gemv", "--scheme", "fbarre",
                 "--scale", "0.05", "--format", "jsonl",
                 "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "phase" in out and "total" in out and "spans ->" in out
    assert out_path.exists() and out_path.stat().st_size > 0
    # The traced run warms the point's standard cache slot.
    assert "result cached at" in out


def test_trace_summary_format_writes_breakdown(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    out_path = tmp_path / "breakdown.txt"
    assert main(["trace", "--app", "gemv", "--scale", "0.05",
                 "--format", "summary", "--out", str(out_path)]) == 0
    text = out_path.read_text()
    assert "phase" in text and "cycles" in text and "total" in text


def test_run_rejects_unknown_app():
    with pytest.raises(SystemExit):
        main(["run", "nosuchapp"])


def test_validate_command_clean(capsys):
    assert main(["validate", "--schemes", "ats,barre", "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "no divergences, no invariant violations" in out
    assert "accesses checked" in out


def test_validate_command_detects_injected_bug(capsys):
    assert main(["validate", "--schemes", "barre", "--seeds", "1",
                 "--inject-pec-bug", "1"]) == 1
    out = capsys.readouterr().out
    assert "INVARIANT VIOLATION" in out and "page table says" in out


def test_validate_command_reports_divergence_without_checker(capsys):
    assert main(["validate", "--schemes", "barre", "--seeds", "1",
                 "--no-invariants", "--inject-pec-bug", "1"]) == 1
    out = capsys.readouterr().out
    assert "DIVERGENCE" in out and "expected" in out


def test_validate_rejects_unknown_scheme():
    with pytest.raises(SystemExit):
        main(["validate", "--schemes", "nosuchscheme"])


def test_all_figures_registered():
    # 18 paper figures (fig27 split a/b) + table1 + area + the on-demand
    # extension + 3 ablations.
    assert len(FIGURES) == 25
    assert len(SCHEMES) == 7


def test_scheme_names_accepted_by_every_command():
    from repro.cli import _build_parser
    from repro.validation.differential import SCHEME_FACTORIES
    names = {"baseline", "shared-l2", "valkyrie", "least", "barre",
             "fbarre", "mgvm"}
    commands = _build_parser()._subparsers._group_actions[0].choices
    for command in ("run", "suite", "trace"):
        (scheme,) = [a for a in commands[command]._actions
                     if a.dest == "scheme"]
        assert set(scheme.choices) == names, command
    assert set(SCHEMES) == names                       # sweep --schemes
    assert set(SCHEME_FACTORIES) == names | {"ats"}    # validate --schemes

"""Tests for the observability layer: catalog, reports, CLI.

The catalog/report tests warm a private result cache with real (tiny)
simulation points, then assert everything downstream — decoding,
comparison tables, HTML rendering, the ``repro explore`` command —
works from cached payloads alone.  The explorer's zero-simulation
contract is asserted the same way the CLI asserts it: through the
runner's simulation counter (``runner.SIMULATIONS``).
"""

from __future__ import annotations

import json
import re
import shutil

import pytest

from repro import cli
from repro.common.trace import Span, read_spans_jsonl, write_spans_jsonl
from repro.experiments import runner as runner_mod
from repro.experiments.configs import SCHEMES
from repro.experiments.runner import run_point, store_point
from repro.experiments.sweep import SweepPoint, sweep
from repro.gpu.mcm import McmGpuSimulator
from repro.obs import catalog, reports
from repro.workloads.suite import get_workload

SCALE = 0.05
APP = "gemv"


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    return tmp_path


def warm(schemes=("baseline", "fbarre")):
    for scheme in schemes:
        run_point(SCHEMES[scheme](), APP, scale=SCALE)


class TestKeyManifest:
    def test_fill_writes_manifest_with_key_components(self, cache):
        warm(("baseline",))
        manifests = list((cache / "meta" / "keys").glob("*.json"))
        assert len(manifests) == 1
        recorded = json.loads(manifests[0].read_text())
        assert recorded["sim_version"] == runner_mod.SIM_VERSION
        assert recorded["app"] == APP
        assert recorded["scale"] == SCALE
        assert recorded["tag"] == ""
        assert recorded["file"].startswith(f"{APP}-")
        assert json.loads(recorded["config"])  # canonical config JSON
        assert recorded["seconds"] > 0

    def test_traced_store_records_no_seconds(self, cache):
        result = McmGpuSimulator(SCHEMES["baseline"](),
                                 [get_workload(APP)], trace_scale=SCALE,
                                 trace=True).run()
        store_point(SCHEMES["baseline"](), APP, result, scale=SCALE)
        (manifest,) = (cache / "meta" / "keys").glob("*.json")
        recorded = json.loads(manifest.read_text())
        assert recorded["app"] == APP
        assert "seconds" not in recorded
        assert runner_mod.load_timings() == {}

    def test_cache_hit_does_not_rewrite_manifest(self, cache):
        warm(("baseline",))
        manifest = next((cache / "meta" / "keys").glob("*.json"))
        before = manifest.stat().st_mtime_ns
        warm(("baseline",))      # pure hit
        assert manifest.stat().st_mtime_ns == before

    def test_load_key_manifest_missing_is_none(self, cache):
        assert runner_mod.load_key_manifest("0" * 24, cache) is None


class TestCatalog:
    def test_scan_decodes_scheme_scale_and_version(self, cache):
        warm()
        entries = catalog.scan()
        assert {e.scheme for e in entries} == {"baseline", "fbarre"}
        assert all(e.app == APP for e in entries)
        assert all(e.scale == SCALE for e in entries)
        assert all(e.sim_version == runner_mod.SIM_VERSION for e in entries)
        assert all(e.cycles > 0 for e in entries)
        assert all(e.seconds > 0 for e in entries)

    def test_scan_reads_manifests_of_the_scanned_root(self, cache,
                                                      tmp_path_factory,
                                                      monkeypatch):
        warm(("baseline",))
        copy = tmp_path_factory.mktemp("copy") / "cache"
        shutil.copytree(cache, copy)
        monkeypatch.setenv("REPRO_CACHE_DIR",
                           str(tmp_path_factory.mktemp("elsewhere")))
        (entry,) = catalog.scan(copy)
        assert entry.sim_version == runner_mod.SIM_VERSION
        assert entry.scale == SCALE
        assert entry.seconds > 0

    def test_scan_without_manifest_falls_back_to_payload(self, cache):
        warm(("fbarre",))
        for manifest in (cache / "meta" / "keys").glob("*.json"):
            manifest.unlink()
        (entry,) = catalog.scan()
        assert entry.app == APP
        assert entry.scheme == entry.backend    # best-effort decode
        assert entry.sim_version is None
        assert entry.scale is None
        assert entry.seconds is None

    def test_scan_empty_or_disabled_cache(self, cache, monkeypatch):
        assert catalog.scan() == []
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert catalog.scan() == []

    def test_scan_ignores_torn_or_foreign_json(self, cache):
        warm(("baseline",))
        (cache / "zz-notapoint.json").write_text("{not json")
        (cache / "meta").mkdir(exist_ok=True)
        assert len(catalog.scan()) == 1


class TestReports:
    def test_figure_comparison_normalizes_to_baseline(self, cache):
        warm()
        entries = catalog.scan()
        apps, series = reports.speedup_series(entries)
        assert apps == [APP]
        assert series["baseline"][APP] == pytest.approx(1.0)
        assert series["fbarre"][APP] > 0
        text = reports.figure_comparison(entries)
        assert "fbarre" in text and APP in text

    def test_figure_comparison_without_baseline(self, cache):
        warm(("fbarre",))
        text = reports.figure_comparison(catalog.scan())
        assert "no cached baseline" in text

    def test_latency_table_has_percentiles(self, cache):
        warm(("baseline",))
        entries = catalog.scan()
        rows = reports.latency_rows(entries)
        assert rows and rows[0]["p50"] <= rows[0]["p99"] <= rows[0]["max"]
        table = reports.latency_table(entries)
        assert "p99" in table and APP in table

    def test_version_diff_pairs_shared_points(self, cache, monkeypatch):
        v0 = runner_mod.SIM_VERSION
        warm(("baseline",))
        monkeypatch.setattr(runner_mod, "SIM_VERSION", "bc-test")
        warm(("baseline",))
        entries = catalog.scan()
        diff = reports.version_diff(entries, v0, "bc-test")
        # Same simulator, different version stamp: identical cycles.
        assert "baseline" in diff and "+0.00%" in diff
        assert "no points cached under both" in reports.version_diff(
            entries, v0, "bc-nonexistent")

    def test_overview_counts(self, cache):
        warm()
        text = reports.overview(catalog.scan())
        assert "2 points" in text and APP in text
        assert reports.overview([]).startswith("result cache: empty")

    def test_render_html_is_self_contained(self, cache):
        warm()
        html_text = reports.render_html(catalog.scan())
        assert html_text.startswith("<!doctype html>")
        assert APP in html_text and "fbarre" in html_text
        for forbidden in ("<script", "http://", "https://"):
            assert forbidden not in html_text


class TestSpanRoundTrip:
    def test_jsonl_export_round_trips(self, tmp_path):
        span = Span(0, chiplet=1, stream=2, pasid=0, vpn=42, start=10)
        span.events.append((15, "l1_miss"))
        span.end = 30
        open_span = Span(1, 0, 0, 0, 7, start=20)
        path = write_spans_jsonl([span, open_span], tmp_path / "s.jsonl")
        back = read_spans_jsonl(path)
        assert [s.to_dict() for s in back] == [span.to_dict(),
                                               open_span.to_dict()]

    def test_phase_breakdown_from_banked_trace(self, tmp_path):
        span = Span(0, 0, 0, 0, 1, start=0)
        span.events.append((60, "walk"))
        span.end = 100
        path = write_spans_jsonl([span], tmp_path / "t.jsonl")
        text = reports.phase_breakdown(path)
        assert "walk" in text and "issue" in text


class TestSweepEvents:
    def test_sweep_emits_point_finish_per_simulated_point(self, cache):
        events = []
        point = SweepPoint(SCHEMES["baseline"](), APP, SCALE)
        out = sweep([point], jobs=1, progress=False, events=events.append)
        (finish,) = events
        assert finish["event"] == "point_finish"
        assert finish["app"] == APP and finish["stolen"] is False
        assert re.fullmatch(r"[0-9a-f]{24}", finish["digest"])
        assert finish["seconds"] == round(
            out.stats.point_seconds[point.key()], 4)
        # Second run: everything cached, so nothing finishes.
        events.clear()
        sweep([point], jobs=1, progress=False, events=events.append)
        assert events == []


class TestExploreCli:
    def test_explore_renders_with_zero_simulations(self, cache, capsys):
        warm()
        assert cli.main(["explore"]) == 0
        out = capsys.readouterr().out
        assert "speedup over baseline" in out
        assert "translation latency percentiles" in out
        assert "0 simulations" in out

    def test_explore_fails_when_a_renderer_simulates(self, cache,
                                                     monkeypatch):
        warm(("baseline",))

        def simulating_overview(entries):
            run_point(SCHEMES["fbarre"](), APP, scale=SCALE)  # cold
            return "overview"

        monkeypatch.setattr(reports, "overview", simulating_overview)
        with pytest.raises(SystemExit, match="explore must never simulate"):
            cli.main(["explore"])

    def test_explore_writes_html_report(self, cache, tmp_path, capsys):
        warm(("baseline",))
        out_path = tmp_path / "report" / "index.html"
        assert cli.main(["explore", "--html", str(out_path)]) == 0
        assert out_path.read_text().startswith("<!doctype html>")

    def test_explore_diff_and_trace_sections(self, cache, tmp_path,
                                             capsys, monkeypatch):
        warm(("baseline",))
        span = Span(0, 0, 0, 0, 1, start=0)
        span.end = 50
        trace_path = write_spans_jsonl([span], tmp_path / "trace.jsonl")
        assert cli.main(["explore", "--trace", str(trace_path),
                         "--diff", "bc-2", "bc-3"]) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        assert "bc-2 vs bc-3" in out

    def test_explore_cache_flag_decodes_its_own_manifests(
            self, cache, tmp_path_factory, monkeypatch, capsys):
        warm(("baseline",))
        elsewhere = tmp_path_factory.mktemp("elsewhere")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(elsewhere))
        assert cli.main(["explore", "--cache", str(cache)]) == 0
        out = capsys.readouterr().out
        assert f"sim versions: {runner_mod.SIM_VERSION}" in out
        assert "over 1 timed points" in out

    def test_explore_empty_cache_is_fine(self, cache, capsys):
        assert cli.main(["explore"]) == 0
        assert "empty" in capsys.readouterr().out

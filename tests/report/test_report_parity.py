"""REPORT.md and report.html come from one content walk and must agree.

Both documents are :func:`repro.report.document.render_report` in a
different syntax; these tests pin that the two carry the same section
titles on the analyze, simulate and faulted fixture stores, that the HTML
lists quarantined units like the Markdown, and that one bundle scans the
store's event stream only once.
"""

from __future__ import annotations

import re
from html import escape, unescape

import pytest

from repro.obs import profile
from repro.report.aggregate import aggregate_store
from repro.report.bundle import write_report_bundle
from repro.report.html import render_html_report
from repro.report.markdown import render_markdown_report


def _markdown_titles(text):
    return [line[len("## "):] for line in text.splitlines() if line.startswith("## ")]


def _html_titles(text):
    return [unescape(title) for title in re.findall(r"<h2>(.*?)</h2>", text)]


@pytest.mark.parametrize(
    "store_fixture", ["finished_store", "simulate_store", "faulted_store"]
)
def test_markdown_and_html_have_the_same_section_titles(store_fixture, request):
    aggregate = aggregate_store(request.getfixturevalue(store_fixture))
    titles = _markdown_titles(render_markdown_report(aggregate))
    assert titles == _html_titles(render_html_report(aggregate))
    assert any(title.startswith("Acceptance-ratio series") for title in titles)


def test_html_lists_every_quarantined_unit_with_its_error_kind(faulted_store):
    aggregate = aggregate_store(faulted_store)
    assert len(aggregate.quarantined) == 2
    html = render_html_report(aggregate)
    assert "<h2>Quarantined units (2)</h2>" in html
    for unit_id, record in aggregate.quarantined.items():
        assert record["error_kind"] == "FaultInjected"
        assert f"<tr><td>{escape(unit_id)}</td><td>FaultInjected</td>" in html


def test_report_bundle_reads_the_profile_once(simulate_store, tmp_path, monkeypatch):
    calls = []
    scan_events = profile.scan_events

    def counting_scan_events(store_directory):
        calls.append(store_directory)
        return scan_events(store_directory)

    monkeypatch.setattr(profile, "scan_events", counting_scan_events)
    bundle = write_report_bundle(aggregate_store(simulate_store), str(tmp_path / "out"))
    assert len(calls) == 1
    # The one read still feeds the EP-fidelity line of both documents.
    for path in (bundle.report_md, bundle.report_html):
        with open(path) as handle:
            assert "EP fidelity." in handle.read()

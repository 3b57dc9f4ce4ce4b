"""End-to-end daemon tests over a real socket: protocol resilience, typed
errors, progress push streams, report aggregation, the documented protocol
reference, service events, shutdown — and the acceptance criterion that a
campaign run through the service produces the same store as the batch CLI."""

from __future__ import annotations

import json
import os
import socket

import pytest

from repro.campaign import cli
from repro.campaign.planner import (
    config_to_dict,
    grid_scenarios,
    scenario_to_dict,
    select_scenarios,
)
from repro.campaign.store import CampaignStore
from repro.experiments.runner import SweepConfig
from repro.obs.sink import events_path, iter_event_records
from repro.service import ServiceDaemon
from repro.service.messages import (
    ERR_INVALID,
    ERR_MALFORMED,
    ERR_UNKNOWN_JOB,
    ERR_UNKNOWN_TYPE,
    ERR_VERSION,
    PROTOCOL_VERSION,
    ErrorReply,
    GetStats,
    ProgressEvent,
    ReportReady,
    ResultReady,
    ShuttingDown,
    StatsReply,
    SubmitCampaign,
    decode_frame,
    render_protocol_reference,
)

#: Store record fields that legitimately differ between runs.
VOLATILE_FIELDS = ("completed_at", "elapsed_seconds")


def _stripped_records(directory):
    """Result payloads of a store keyed by unit id, timing stripped."""
    records = CampaignStore(directory).load_records()
    return {
        unit_id: {k: v for k, v in record.items() if k not in VOLATILE_FIELDS}
        for unit_id, record in records.items()
    }


# --------------------------------------------------------------------------- #
# Protocol resilience on a live socket
# --------------------------------------------------------------------------- #
def test_bad_frames_get_typed_errors_and_never_kill_the_connection(daemon):
    sock = socket.create_connection(daemon.address, timeout=60.0)
    reader = sock.makefile("rb")
    try:
        probes = [
            (b"this is not json\n", ERR_MALFORMED),
            (b'"a bare string"\n', ERR_MALFORMED),
            (
                json.dumps(
                    {"type": "get_stats", "v": PROTOCOL_VERSION + 7}
                ).encode() + b"\n",
                ERR_VERSION,
            ),
            (
                json.dumps(
                    {"type": "no_such_message", "v": PROTOCOL_VERSION}
                ).encode() + b"\n",
                ERR_UNKNOWN_TYPE,
            ),
            (
                json.dumps(
                    {"type": "get_status", "v": PROTOCOL_VERSION}
                ).encode() + b"\n",
                ERR_INVALID,
            ),
        ]
        for frame, expected_code in probes:
            sock.sendall(frame)
            reply = decode_frame(reader.readline())
            assert isinstance(reply, ErrorReply), (frame, reply)
            assert reply.code == expected_code
        # After every abuse above, the very same connection still serves a
        # well-formed request.
        sock.sendall(GetStats().encode())
        reply = decode_frame(reader.readline())
        assert isinstance(reply, StatsReply)
    finally:
        reader.close()
        sock.close()


def test_unknown_job_and_query_report_are_typed_errors(
    daemon, connect, tiny_query
):
    client = connect()
    reply = client.status("q-0000000000000000")
    assert isinstance(reply, ErrorReply)
    assert reply.code == ERR_UNKNOWN_JOB
    assert reply.job_id == "q-0000000000000000"

    # Reports cover campaign jobs; asking for a query's is invalid_payload.
    accepted, _ = client.query(tiny_query(seed=11))
    reply = client.report(accepted.job_id)
    assert isinstance(reply, ErrorReply)
    assert reply.code == ERR_INVALID


def test_invalid_submissions_are_rejected_not_fatal(daemon, connect, tiny_query):
    client = connect()
    bad = tiny_query()
    bad = type(bad)(
        scenario={"platform_size": 8},  # missing required scenario fields
        utilization=bad.utilization,
        samples=bad.samples,
        seed=bad.seed,
        protocols=bad.protocols,
    )
    client.send(bad)
    reply = client.recv()
    assert isinstance(reply, ErrorReply)
    assert reply.code == ERR_INVALID

    unknown_protocol = tiny_query()
    unknown_protocol = type(unknown_protocol)(
        scenario=unknown_protocol.scenario,
        utilization=unknown_protocol.utilization,
        samples=unknown_protocol.samples,
        seed=unknown_protocol.seed,
        protocols=("NO-SUCH-PROTOCOL",),
    )
    client.send(unknown_protocol)
    reply = client.recv()
    assert isinstance(reply, ErrorReply)
    assert reply.code == ERR_INVALID

    # The daemon survives both rejections and still answers real work.
    _, ready = client.query(tiny_query(seed=12))
    assert ready.result["seed"] == 12


# --------------------------------------------------------------------------- #
# Progress pushes and reports
# --------------------------------------------------------------------------- #
def test_campaign_progress_streams_to_the_submitter(
    daemon, connect, tiny_campaign
):
    client = connect()
    accepted = client.submit(tiny_campaign(workers=1))
    events = list(client.progress(accepted.job_id))
    ready = client.wait_result(accepted.job_id)

    assert ready.exit_code == 0
    assert events, "no progress events were pushed"
    assert all(isinstance(event, ProgressEvent) for event in events)
    assert [event.done for event in events] == list(
        range(1, len(events) + 1)
    ), "progress must be monotonic"
    assert events[-1].done == events[-1].total == ready.result["total"]
    assert all(event.unit_id for event in events), (
        "freshly executed units carry their unit id"
    )


def test_report_over_the_wire_matches_the_finished_campaign(
    daemon, connect, tiny_campaign
):
    client = connect()
    accepted, ready = client.campaign(tiny_campaign(workers=1))
    assert ready.exit_code == 0

    report = client.report(accepted.job_id)
    assert isinstance(report, ReportReady)
    assert report.exit_code == 0
    assert report.report["complete"] is True
    assert report.report["completed_units"] == ready.result["total"]
    assert report.report["quarantined"] == []
    acceptance = report.report["weighted_acceptance"]
    assert set(acceptance) == {"SPIN", "FED-FP"}
    for rate in acceptance.values():
        assert 0.0 <= rate <= 1.0

    # A second request is served through the report cache.
    again = client.report(accepted.job_id)
    assert isinstance(again, ReportReady)
    assert again.report["weighted_acceptance"] == acceptance
    assert again.report["cache_hit"] is True


# --------------------------------------------------------------------------- #
# Acceptance: the service's durable store equals the batch CLI's
# --------------------------------------------------------------------------- #
def test_campaign_via_service_matches_the_batch_cli_store(
    daemon, connect, tmp_path
):
    """The same campaign through `campaign run` and through the daemon must
    yield stores with the same config hash and record-identical results
    (modulo wall-clock timestamps)."""
    scenarios = select_scenarios(
        grid_scenarios("fig2", num_vertices_range=(5, 8)), "m=16"
    )
    sweep = SweepConfig(
        samples_per_point=2, utilization_step_fraction=0.5, seed=2020
    )

    cli_store = str(tmp_path / "cli-store")
    assert cli.main([
        "run", "--store", cli_store,
        "--grid", "fig2", "--filter", "m=16",
        "--samples", "2", "--step", "0.5", "--vertices", "5,8",
        "--protocols", "SPIN,FED-FP", "--seed", "2020", "--quiet",
    ]) == 0

    client = connect()
    _, ready = client.campaign(
        SubmitCampaign(
            scenarios=tuple(scenario_to_dict(s) for s in scenarios),
            sweep=config_to_dict(sweep),
            protocols=("SPIN", "FED-FP"),
            workers=1,
        )
    )
    assert ready.exit_code == 0
    service_store = ready.result["store_directory"]

    with open(os.path.join(cli_store, "manifest.json")) as handle:
        cli_manifest = json.load(handle)
    with open(os.path.join(service_store, "manifest.json")) as handle:
        service_manifest = json.load(handle)
    assert cli_manifest["config_hash"] == service_manifest["config_hash"]
    assert ready.result["config_hash"] == cli_manifest["config_hash"]

    cli_records = _stripped_records(cli_store)
    service_records = _stripped_records(service_store)
    assert cli_records == service_records
    assert len(cli_records) == ready.result["total"] == 4


# --------------------------------------------------------------------------- #
# Observability and lifecycle
# --------------------------------------------------------------------------- #
def test_service_events_record_the_whole_lifecycle(
    daemon, connect, tiny_query, tiny_campaign
):
    client = connect()
    client.query(tiny_query(seed=31))
    client.query(tiny_query(seed=31))  # cache hit — still admitted
    client.campaign(tiny_campaign(workers=1))

    records = [
        record
        for record, _ in iter_event_records(events_path(daemon.data_dir))
    ]
    types = [record.get("type") for record in records]
    assert types[0] == "service_started"
    assert types.count("job_admitted") == 3
    assert types.count("job_finished") == 2  # the cache hit spawned no job

    admitted = [r for r in records if r.get("type") == "job_admitted"]
    assert [r["kind"] for r in admitted] == ["query", "query", "campaign"]
    assert admitted[1]["cached"] is True
    started = next(r for r in records if r.get("type") == "service_started")
    assert (started["host"], started["port"]) == daemon.address
    assert started["data_dir"] == daemon.data_dir


def test_stats_reply_reflects_the_work_done(daemon, connect, tiny_query):
    client = connect()
    client.query(tiny_query(seed=21))
    client.query(tiny_query(seed=21))
    stats = client.stats()
    counters = stats.counters["counters"]
    assert counters["service.queries"] == 1
    assert counters["service.cache.hits"] == 1
    assert stats.counters["jobs"] == {"done": 1}
    assert stats.counters["cache_entries"] == 1


def test_shutdown_message_stops_the_daemon(tmp_path):
    service = ServiceDaemon(data_dir=str(tmp_path / "svc"), workers=1).start()
    try:
        from repro.service import ServiceClient

        with ServiceClient(*service.address, timeout=60.0) as client:
            farewell = client.shutdown()
            assert isinstance(farewell, ShuttingDown)
        # The listening socket goes away: fresh connections are refused.
        for _ in range(200):
            try:
                probe = socket.create_connection(service.address, timeout=0.25)
            except OSError:
                break
            probe.close()
        else:
            pytest.fail("daemon kept accepting connections after Shutdown")
    finally:
        service.stop(wait_jobs=False)  # idempotent


# --------------------------------------------------------------------------- #
# The documented protocol is the implemented protocol
# --------------------------------------------------------------------------- #
def test_docs_pin_the_generated_protocol_reference():
    docs = os.path.join(os.path.dirname(__file__), "..", "..", "docs", "service.md")
    with open(docs, encoding="utf-8") as handle:
        text = handle.read()
    reference = render_protocol_reference()
    assert reference.strip() in text, (
        "docs/service.md is stale: regenerate the protocol reference with "
        "`python -m repro.service protocol` and paste it in"
    )


def test_v1_campaign_frame_with_the_retired_batch_size_field_still_runs(
    daemon, tiny_campaign
):
    """``submit_campaign`` lost its ``batch_size`` field without a version
    bump: an older v1 client that still sends it is decoded and served."""
    frame = tiny_campaign(workers=1).to_frame()
    assert "batch_size" not in frame
    frame["batch_size"] = 0
    assert frame["v"] == PROTOCOL_VERSION
    assert isinstance(decode_frame(json.dumps(frame)), SubmitCampaign)

    sock = socket.create_connection(daemon.address, timeout=120.0)
    reader = sock.makefile("rb")
    try:
        sock.sendall(json.dumps(frame).encode() + b"\n")
        while True:
            line = reader.readline()
            assert line, "daemon closed the connection"
            reply = decode_frame(line)
            assert not isinstance(reply, ErrorReply), reply
            if isinstance(reply, ResultReady):
                break
    finally:
        reader.close()
        sock.close()
    assert reply.exit_code == 0
    assert reply.result["completed"] == reply.result["total"] == 4


def test_service_cli_prints_the_protocol_reference(capsys):
    from repro.service.__main__ import main

    assert main(["protocol"]) == 0
    out = capsys.readouterr().out
    assert render_protocol_reference().strip() in out


def test_result_ready_fan_out_is_byte_identical_for_cache_hits(
    daemon, connect, tiny_query
):
    first = connect()
    second = connect()
    _, ready_first = first.query(tiny_query(seed=61))
    accepted, ready_second = second.query(tiny_query(seed=61))
    assert accepted.cached
    assert isinstance(ready_first, ResultReady)
    assert ready_first.encode() == ready_second.encode()

"""Concurrency and soak tests: interleaved clients, coalescing under real
concurrency, per-job result isolation, and disconnect containment."""

from __future__ import annotations

import threading

from repro.campaign.executor import build_protocols, execute_unit
from repro.campaign.planner import scenario_from_dict
from repro.campaign.planner import WorkUnit
from repro.service import ServiceClient, jobs
from repro.service.messages import JobAccepted, ResultReady


def _expected_payload(query):
    """Ground truth for one query: a standalone executor run."""
    unit = WorkUnit(
        scenario=scenario_from_dict(dict(query.scenario)),
        point_index=0,
        utilization=query.utilization,
        seed=query.seed,
        samples_per_point=query.samples,
    )
    protocols = build_protocols(list(query.protocols), query.max_path_signatures)
    result = execute_unit(unit, protocols)
    return {
        name: result.accepted[name] for name in query.protocols
    }, result.evaluated


def test_interleaved_queries_from_threads_stay_isolated(daemon, connect, tiny_query):
    """N distinct queries from N threads: every client gets its own result."""
    queries = [tiny_query(seed=seed) for seed in range(50, 58)]
    results = {}
    errors = []

    def worker(index, query):
        try:
            client = ServiceClient(*daemon.address, timeout=120.0)
            try:
                accepted, ready = client.query(query)
                results[index] = (accepted, ready)
            finally:
                client.close()
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append((index, error))

    threads = [
        threading.Thread(target=worker, args=(index, query))
        for index, query in enumerate(queries)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=180.0)
    assert not errors, errors
    assert len(results) == len(queries)

    job_ids = set()
    for index, query in enumerate(queries):
        accepted, ready = results[index]
        job_ids.add(accepted.job_id)
        # Isolation: each reply carries its own query's parameters...
        assert ready.result["seed"] == query.seed
        assert ready.result["samples"] == query.samples
        # ...and exactly the result a standalone execution produces.
        expected_accepted, expected_evaluated = _expected_payload(query)
        assert ready.result["accepted"] == expected_accepted
        assert ready.result["evaluated"] == expected_evaluated
    assert len(job_ids) == len(queries), "distinct queries must not share jobs"


def test_concurrent_identical_queries_coalesce_to_one_execution(
    daemon, connect, monkeypatch, tiny_query
):
    """Two clients, one identical in-flight query: one execution, one
    coalesce hit, byte-identical results."""
    gate = threading.Event()
    executions = []
    real_wave = jobs.evaluate_query_wave

    def gated_wave(queries):
        executions.append(len(queries))
        assert gate.wait(timeout=60.0), "test gate never released"
        return real_wave(queries)

    monkeypatch.setattr(jobs, "evaluate_query_wave", gated_wave)

    query = tiny_query(seed=99)
    first = connect()
    second = connect()
    first.send(query)
    accepted_first = first.recv_until(JobAccepted)
    assert not accepted_first.coalesced and not accepted_first.cached

    # Wait until the wave is actually executing (holding the gate), so the
    # second submission definitely coalesces instead of racing admission.
    deadline = threading.Event()
    for _ in range(600):
        if executions:
            break
        deadline.wait(0.01)
    assert executions, "first query never started executing"

    second.send(query)
    accepted_second = second.recv_until(JobAccepted)
    assert accepted_second.coalesced
    assert accepted_second.job_id == accepted_first.job_id

    gate.set()
    ready_first = first.wait_result(accepted_first.job_id)
    ready_second = second.wait_result(accepted_second.job_id)

    # ONE execution served both clients...
    assert executions == [1]
    assert daemon.manager.counter("service.coalesce.hits") == 1
    # ...with byte-identical typed results.
    assert ready_first.encode() == ready_second.encode()


def test_repeat_query_is_served_from_the_result_cache(daemon, connect, tiny_query):
    client = connect()
    accepted_first, ready_first = client.query(tiny_query(seed=7))
    accepted_repeat, ready_repeat = client.query(tiny_query(seed=7))
    assert not accepted_first.cached
    assert accepted_repeat.cached
    assert ready_first.encode() == ready_repeat.encode()
    assert daemon.manager.counter("service.cache.hits") == 1


def test_queries_and_campaign_interleave_on_one_daemon(
    daemon, connect, tiny_query, tiny_campaign
):
    """A campaign and queries share the pool without cross-talk."""
    campaign_client = connect()
    accepted = campaign_client.submit(tiny_campaign(workers=1))
    assert isinstance(accepted, JobAccepted)

    query_client = connect()
    _, ready = query_client.query(tiny_query(seed=123))
    assert ready.result["seed"] == 123

    campaign_ready = campaign_client.wait_result(accepted.job_id)
    assert campaign_ready.exit_code == 0
    assert campaign_ready.result["completed"] == campaign_ready.result["total"]


def test_mid_job_disconnect_neither_kills_the_job_nor_leaks_a_worker(
    daemon, connect, monkeypatch, tiny_query
):
    gate = threading.Event()
    started = threading.Event()
    real_wave = jobs.evaluate_query_wave

    def gated_wave(queries):
        started.set()
        assert gate.wait(timeout=60.0), "test gate never released"
        return real_wave(queries)

    monkeypatch.setattr(jobs, "evaluate_query_wave", gated_wave)

    doomed = ServiceClient(*daemon.address, timeout=120.0)
    doomed.send(tiny_query(seed=77))
    accepted = doomed.recv_until(JobAccepted)
    assert started.wait(timeout=60.0)
    # The client vanishes mid-execution.
    doomed.close()
    gate.set()

    # The job still completes...
    assert daemon.manager.wait(accepted.job_id, timeout=60.0)
    status = daemon.manager.status(accepted.job_id)
    assert status.state == "done"
    # ...no worker leaked (the pool accepts and finishes new work)...
    survivor = connect()
    _, ready = survivor.query(tiny_query(seed=78))
    assert ready.result["seed"] == 78
    # ...and the disconnected client's result is served from the cache to
    # anyone who asks again.
    accepted_again, ready_again = survivor.query(tiny_query(seed=77))
    assert accepted_again.cached
    assert isinstance(ready_again, ResultReady)
    assert ready_again.job_id == accepted.job_id


def test_soak_many_interleaved_submissions(daemon, connect, tiny_query):
    """A small soak: repeated + distinct queries from several threads; the
    daemon answers everything and coalesce/cache counters add up."""
    errors = []

    def worker(seed):
        try:
            client = ServiceClient(*daemon.address, timeout=120.0)
            try:
                for repeat in range(3):
                    _, ready = client.query(tiny_query(seed=seed))
                    assert ready.result["seed"] == seed
            finally:
                client.close()
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(seed,)) for seed in (5, 5, 6, 7)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300.0)
    assert not errors, errors

    manager = daemon.manager
    stats = manager.stats()
    counters = stats["counters"]
    # 3 distinct keys; every one of the 12 submissions was answered by an
    # execution, a coalesce, or a cache hit.
    assert counters["service.queries"] == 3
    total = (
        counters["service.queries"]
        + counters.get("service.coalesce.hits", 0)
        + counters.get("service.cache.hits", 0)
    )
    assert total == 12
    assert manager.running_jobs() == 0


def test_a_failing_query_fails_only_its_own_job(daemon, monkeypatch, tiny_query):
    """Two queries drained from the queue together execute apart: one
    raising fails its own job, the other still answers."""
    manager = daemon.manager
    submitter = threading.current_thread()
    real_unit = jobs._query_unit

    def poisoned_unit(message):
        # Admission validates on the submitting thread; execution is the
        # pool's, and only there does the poisoned seed raise.
        if message.seed == 13 and threading.current_thread() is not submitter:
            raise RuntimeError("poisoned query")
        return real_unit(message)

    monkeypatch.setattr(jobs, "_query_unit", poisoned_unit)

    # Hold the admission thread inside its first dispatch so the next two
    # queries queue up and drain in one batch.
    real_submit = manager._pool.submit
    dispatching = threading.Event()
    release = threading.Event()

    def gated_submit(fn, *args, **kwargs):
        if not release.is_set():
            dispatching.set()
            assert release.wait(timeout=60.0), "test gate never released"
        return real_submit(fn, *args, **kwargs)

    monkeypatch.setattr(manager._pool, "submit", gated_submit)

    warmup = manager.submit_query(tiny_query(seed=12))
    assert dispatching.wait(timeout=60.0), "admission never dispatched"
    bad_query, good_query = tiny_query(seed=13), tiny_query(seed=14)
    bad = manager.submit_query(bad_query)
    good = manager.submit_query(good_query)
    release.set()

    for accepted in (warmup, bad, good):
        assert manager.wait(accepted.job_id, timeout=60.0)
    failed = manager.status(bad.job_id)
    assert failed.state == "failed"
    assert failed.error_kind == "RuntimeError"
    assert manager.status(warmup.job_id).state == "done"
    assert manager.status(good.job_id).state == "done"
    expected_accepted, expected_evaluated = _expected_payload(good_query)
    result = manager.job(good.job_id).result
    assert result["accepted"] == expected_accepted
    assert result["evaluated"] == expected_evaluated

"""Telemetry tests: buckets, sessions, and the merge-associativity property."""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import telemetry
from repro.obs.telemetry import (
    ScalarSolves,
    Telemetry,
    TimerStats,
    bucket_label,
    bucket_sort_key,
)


# --------------------------------------------------------------------------- #
# Buckets
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "value,label",
    [
        (0, "0"),
        (1, "1"),
        (2, "2"),
        (3, "3-4"),
        (4, "3-4"),
        (5, "5-8"),
        (8, "5-8"),
        (9, "9-16"),
        (16, "9-16"),
        (17, "17-32"),
        (10_000, "8193-16384"),
    ],
)
def test_bucket_labels(value, label):
    assert bucket_label(value) == label


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**40))
def test_bucket_index_agrees_with_bucket_label(value):
    # The solver fast path buckets by index; its fold must land on the label.
    bundle = Telemetry()
    bundle.scalar_solves.add("converged", value)
    histogram = bundle.to_dict()["histograms"]["solver.iterations"]
    assert histogram == {bucket_label(value): 1}


def test_bucket_sort_key_orders_labels_numerically():
    labels = ["17-32", "0", "5-8", "2", "3-4", "1", "9-16"]
    assert sorted(labels, key=bucket_sort_key) == [
        "0", "1", "2", "3-4", "5-8", "9-16", "17-32",
    ]


# --------------------------------------------------------------------------- #
# Timers
# --------------------------------------------------------------------------- #
def test_timer_stats_track_count_total_and_extremes():
    timer = TimerStats()
    for seconds in (0.5, 0.125, 2.0):
        timer.add(seconds)
    assert timer.count == 3
    assert timer.total == 2.625
    assert timer.minimum == 0.125
    assert timer.maximum == 2.0


def test_empty_timer_serialises_min_as_none_and_round_trips():
    empty = TimerStats()
    assert empty.to_dict()["min"] is None
    assert TimerStats.from_dict(empty.to_dict()).to_dict() == empty.to_dict()


def test_span_records_one_observation():
    bundle = Telemetry()
    with bundle.span("phase.test"):
        pass
    timer = bundle.timers["phase.test"]
    assert timer.count == 1
    assert timer.total >= 0.0


# --------------------------------------------------------------------------- #
# The active session
# --------------------------------------------------------------------------- #
def test_sessions_nest_and_restore_the_previous_bundle():
    assert telemetry.active() is None
    with telemetry.session() as outer:
        assert telemetry.active() is outer
        outer.count("outer")
        with telemetry.session() as inner:
            assert telemetry.active() is inner
            inner.count("inner")
        assert telemetry.active() is outer
    assert telemetry.active() is None
    assert outer.counters == {"outer": 1}
    assert inner.counters == {"inner": 1}


def test_sessions_are_per_thread():
    # Two threads' sessions overlap without either seeing or restoring the
    # other's bundle (the service daemon runs jobs on threads side by side).
    entered, release = threading.Barrier(2), threading.Event()
    seen = {}

    def other():
        seen["before"] = telemetry.active()
        with telemetry.session() as inner:
            entered.wait()
            release.wait()
            seen["inside"] = telemetry.active() is inner
        seen["after"] = telemetry.active()

    thread = threading.Thread(target=other, daemon=True)
    try:
        with telemetry.session() as outer:
            thread.start()
            entered.wait(timeout=10)
            assert telemetry.active() is outer
        assert telemetry.active() is None
    finally:
        release.set()
        thread.join(timeout=10)
    assert seen == {"before": None, "inside": True, "after": None}


def test_module_guards_are_no_ops_without_a_session():
    # Instrumented code records only through ``active()``, which is None
    # outside a session; a session that records nothing stays empty.
    assert telemetry.active() is None
    assert telemetry._SESSION.solve_append is None
    with telemetry.session() as bundle:
        pass
    assert not bundle
    assert telemetry._SESSION.solve_append is None


# --------------------------------------------------------------------------- #
# The solver fast path
# --------------------------------------------------------------------------- #
def test_scalar_solve_stats_fold_matches_the_generic_api():
    fast = Telemetry()
    solves = [("converged", 1), ("converged", 2), ("diverged", 0), ("no_convergence", 7)]
    for outcome, iterations in solves:
        fast.scalar_solves.add(outcome, iterations)

    slow = Telemetry()
    for outcome, iterations in solves:
        slow.count("solver.scalar.calls")
        slow.count(f"solver.scalar.{outcome}")
        slow.count("solver.scalar.iterations", iterations)
        slow.record("solver.iterations", iterations)

    assert fast.to_dict() == slow.to_dict()


def test_scalar_solve_fold_is_idempotent_and_merge_safe():
    a = Telemetry()
    a.scalar_solves.add("converged", 3)
    b = Telemetry()
    b.scalar_solves.add("diverged", 0)
    merged = Telemetry()
    merged.merge(a)
    merged.merge(b)
    snapshot = merged.to_dict()
    assert snapshot == merged.to_dict()  # folding twice changes nothing
    assert snapshot["counters"]["solver.scalar.calls"] == 2
    assert snapshot["counters"]["solver.scalar.converged"] == 1
    assert snapshot["counters"]["solver.scalar.diverged"] == 1
    assert snapshot["histograms"]["solver.iterations"] == {"0": 1, "3-4": 1}
    # The source bundles still carry their own totals after being merged.
    assert a.to_dict()["counters"]["solver.scalar.calls"] == 1


# --------------------------------------------------------------------------- #
# Merge associativity (the contract the parallel executor relies on)
# --------------------------------------------------------------------------- #
_NAMES = st.sampled_from(["solver.calls", "cache.hits", "phase.analysis", "x"])

#: Durations as exact binary fractions so float addition is associative
#: bit-for-bit — the property under test is the *merge*, not float rounding.
_SECONDS = st.integers(min_value=0, max_value=4096).map(lambda n: n / 1024)


@st.composite
def telemetry_bundles(draw):
    """A random Telemetry bundle built through the public recording API."""
    bundle = Telemetry()
    for name, n in draw(
        st.dictionaries(_NAMES, st.integers(min_value=0, max_value=100))
    ).items():
        bundle.count(name, n)
    for name, durations in draw(
        st.dictionaries(_NAMES, st.lists(_SECONDS, max_size=5))
    ).items():
        for seconds in durations:
            bundle.observe(name, seconds)
    for name, values in draw(
        st.dictionaries(
            _NAMES, st.lists(st.integers(min_value=0, max_value=10_000), max_size=5)
        )
    ).items():
        for value in values:
            bundle.record(name, value)
    for outcome, iterations in draw(
        st.lists(
            st.tuples(
                st.sampled_from(["converged", "diverged", "no_convergence"]),
                st.integers(min_value=0, max_value=1000),
            ),
            max_size=4,
        )
    ):
        bundle.scalar_solves.add(outcome, iterations)
    return bundle


def _merged(*bundles):
    out = Telemetry()
    for bundle in bundles:
        out.merge(bundle)
    return out


@settings(max_examples=200, deadline=None)
@given(telemetry_bundles(), telemetry_bundles(), telemetry_bundles())
def test_merge_is_associative(a, b, c):
    left = _merged(_merged(a, b), c)
    right = _merged(a, _merged(b, c))
    assert left.to_dict() == right.to_dict()


@settings(max_examples=100, deadline=None)
@given(telemetry_bundles(), telemetry_bundles())
def test_merge_round_trips_through_to_dict(a, b):
    merged = _merged(a, b)
    assert Telemetry.from_dict(merged.to_dict()).to_dict() == merged.to_dict()


@settings(max_examples=100, deadline=None)
@given(telemetry_bundles())
def test_merging_an_empty_bundle_is_the_identity(a):
    assert _merged(a, Telemetry()).to_dict() == a.to_dict()

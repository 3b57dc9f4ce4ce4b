"""Deterministic fault injection for exercising campaign crash recovery.

Crash-recovery code that is only ever exercised by real crashes is code
that rots.  This module makes the failure modes of a campaign *plannable*:
a :class:`FaultPlan` is a seeded, JSON-serialisable description of which
work units misbehave and how — raise inside the unit runner, kill the
worker process outright (``os._exit``), or stall past the unit deadline —
plus two store-corruption helpers (:func:`tear_results_tail`,
:func:`leave_stale_manifest_tmp`) that reproduce the artefacts of a writer
killed mid-write.

Activation is environment-based so the plan crosses the process-pool
boundary without touching any executor signature: the executor (and every
spawned worker) calls :func:`active_plan`, which reads the plan file named
by :data:`ENV_VAR`.  Determinism and *transience* are both first-class:

* **Selection** is a pure function of ``(plan seed, fault kind, unit id)``
  — the same plan always poisons the same units, at any worker count, so
  tests can pin exactly which units fail.
* **Firing budgets** (``times``) are enforced through marker files in the
  plan's ``state_dir``, claimed with ``O_CREAT | O_EXCL`` so concurrent
  workers — and *re-spawned* workers after a kill — agree on how often a
  fault has fired.  A ``times=1`` kill therefore behaves like a real
  transient crash: it fires once, and the retried unit succeeds.

The harness is strictly a test/CI facility: with :data:`ENV_VAR` unset,
:func:`active_plan` returns ``None`` and the executor's fault hook is a
single dictionary lookup.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Environment variable naming the JSON fault-plan file; set for a campaign
#: process and inherited by every spawned worker.
ENV_VAR = "REPRO_FAULT_PLAN"

#: Fault kinds a plan can inject inside the unit runner.
FAULT_RAISE = "raise"  # raise FaultInjected inside the unit (poison unit)
FAULT_KILL = "kill"  # os._exit the worker mid-unit (OOM-kill / segfault)
FAULT_SLEEP = "sleep"  # stall the unit (deadline / timeout exercise)
FAULT_KINDS = (FAULT_RAISE, FAULT_KILL, FAULT_SLEEP)

#: Exit status used by the ``kill`` fault — matches the status of a
#: SIGKILL-ed process (128 + 9), the case the recovery path is written for.
KILL_EXIT_STATUS = 137


class FaultInjected(RuntimeError):
    """The exception raised inside a work unit by a ``raise`` fault."""


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: what to do, to which units, how often.

    ``unit_ids`` pins the fault to explicit units; an empty tuple selects
    units by hashing instead: the fault fires on units whose selection
    digest is ``0 mod every`` (deterministic in the plan seed, the fault
    kind, and the unit id — roughly one unit in ``every``).  ``times``
    caps total firings per unit across *all* processes and retries
    (``0`` = unlimited); ``seconds`` is the stall length of ``sleep``
    faults.
    """

    kind: str
    every: int = 1
    times: int = 1
    seconds: float = 0.0
    unit_ids: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.every < 1:
            raise ValueError(f"every must be at least 1, got {self.every}")
        if self.times < 0:
            raise ValueError(f"times must be non-negative, got {self.times}")

    def to_dict(self) -> dict:
        """JSON-serialisable form (the plan-file entry)."""
        return {
            "kind": self.kind,
            "every": self.every,
            "times": self.times,
            "seconds": self.seconds,
            "unit_ids": list(self.unit_ids),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(
            kind=str(data["kind"]),
            every=int(data.get("every", 1)),
            times=int(data.get("times", 1)),
            seconds=float(data.get("seconds", 0.0)),
            unit_ids=tuple(data.get("unit_ids", ())),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault specs plus the marker directory for budgets."""

    faults: Tuple[FaultSpec, ...]
    seed: int = 0
    #: Directory holding the at-most-once firing markers.  Required when
    #: any fault has a finite ``times`` budget.
    state_dir: str = ""

    def __post_init__(self) -> None:
        if any(f.times for f in self.faults) and not self.state_dir:
            raise ValueError(
                "a plan with times-limited faults needs a state_dir for its "
                "firing markers"
            )

    # ------------------------------------------------------------------ #
    # Selection and budget claims
    # ------------------------------------------------------------------ #
    def selects(self, spec: FaultSpec, unit_id: str) -> bool:
        """Whether ``spec`` targets ``unit_id`` under this plan's seed."""
        if spec.unit_ids:
            return unit_id in spec.unit_ids
        digest = hashlib.sha256(
            f"{self.seed}:{spec.kind}:{unit_id}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") % spec.every == 0

    def _marker_base(self, spec: FaultSpec, unit_id: str) -> str:
        token = hashlib.sha256(
            f"{spec.kind}:{unit_id}".encode("utf-8")
        ).hexdigest()[:24]
        return os.path.join(self.state_dir, f"{spec.kind}-{token}")

    def _claim(self, spec: FaultSpec, unit_id: str) -> bool:
        """Atomically claim one firing slot of ``spec`` for ``unit_id``.

        Each slot is a marker file created with ``O_CREAT | O_EXCL`` — a
        worker that wins the creation race owns that firing; once all
        ``times`` slots exist the budget is spent and the fault stays
        quiet.  Markers are claimed *before* the fault acts, so even an
        ``os._exit`` immediately afterwards cannot double-fire.
        """
        if spec.times == 0:
            return True
        os.makedirs(self.state_dir, exist_ok=True)
        base = self._marker_base(spec, unit_id)
        for slot in range(spec.times):
            try:
                fd = os.open(f"{base}.{slot}", os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            return True
        return False

    def fired(self, kind: str, unit_id: str) -> int:
        """How many firing slots of ``kind`` are spent for ``unit_id``."""
        count = 0
        for spec in self.faults:
            if spec.kind != kind or not spec.times:
                continue
            base = self._marker_base(spec, unit_id)
            count += sum(
                1 for slot in range(spec.times) if os.path.exists(f"{base}.{slot}")
            )
        return count

    # ------------------------------------------------------------------ #
    # Firing
    # ------------------------------------------------------------------ #
    def fire(self, unit_id: str, allow_exit: bool = True) -> None:
        """Fire every due fault for ``unit_id`` (called by the unit runner).

        ``allow_exit=False`` — the in-process (``workers <= 1``) execution
        path — skips ``kill`` faults entirely: exiting would take down the
        campaign process itself, which is not the failure mode the fault
        models (there is no worker to kill and no parent left to recover).
        """
        for spec in self.faults:
            if not self.selects(spec, unit_id):
                continue
            if spec.kind == FAULT_KILL and not allow_exit:
                continue
            if not self._claim(spec, unit_id):
                continue
            if spec.kind == FAULT_RAISE:
                raise FaultInjected(
                    f"injected failure in unit {unit_id} (plan seed {self.seed})"
                )
            if spec.kind == FAULT_KILL:
                os._exit(KILL_EXIT_STATUS)
            if spec.kind == FAULT_SLEEP:
                time.sleep(spec.seconds)

    # ------------------------------------------------------------------ #
    # (De)serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-serialisable form (the plan file's contents)."""
        return {
            "seed": self.seed,
            "state_dir": self.state_dir,
            "faults": [spec.to_dict() for spec in self.faults],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        return cls(
            faults=tuple(FaultSpec.from_dict(f) for f in data.get("faults", ())),
            seed=int(data.get("seed", 0)),
            state_dir=str(data.get("state_dir", "")),
        )


def write_plan(plan: FaultPlan, path: str) -> str:
    """Persist ``plan`` as the JSON file :func:`load_plan` reads; returns
    ``path`` (convenient for ``env[ENV_VAR] = write_plan(...)``)."""
    with open(path, "w") as handle:
        json.dump(plan.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_plan(path: str) -> FaultPlan:
    """Load a fault plan from its JSON file."""
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{path!r} is not a fault-plan file")
    return FaultPlan.from_dict(data)


#: Cache of loaded plans keyed by path, so the per-unit hook costs one
#: ``os.environ`` lookup plus one dict hit.
_PLAN_CACHE: Dict[str, FaultPlan] = {}


def active_plan() -> Optional[FaultPlan]:
    """The fault plan named by :data:`ENV_VAR`, or ``None`` when unset.

    Loaded once per process and cached by path; workers inherit the
    environment from the campaign process, so the same plan governs every
    execution path without any executor plumbing.
    """
    path = os.environ.get(ENV_VAR)
    if not path:
        return None
    plan = _PLAN_CACHE.get(path)
    if plan is None:
        plan = load_plan(path)
        _PLAN_CACHE[path] = plan
    return plan


def clear_plan_cache() -> None:
    """Drop the per-process plan cache (tests switching plans mid-process)."""
    _PLAN_CACHE.clear()


# --------------------------------------------------------------------------- #
# Store-corruption helpers (writer-killed-mid-write artefacts)
# --------------------------------------------------------------------------- #
def tear_results_tail(
    directory: str, fragment: str = '{"unit_id":"torn-mid-wr'
) -> str:
    """Append a torn (newline-less) JSON fragment to a store's results file.

    Reproduces the exact artefact of a writer killed mid-``write``: the
    final line is incomplete, and every store reader must neither yield it
    nor advance past it.  Returns the results-file path.
    """
    path = os.path.join(directory, "results.jsonl")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(fragment)
    return path


def leave_stale_manifest_tmp(directory: str) -> str:
    """Drop a half-written ``manifest.json.tmp`` into a store directory.

    Reproduces a crash *between* the temporary-manifest write and its
    atomic ``os.replace``: the real manifest (if any) is intact, but a
    stale, truncated temporary lingers.  Store initialisation must ignore
    and clean it rather than trip over it.  Returns the tmp path.
    """
    path = os.path.join(directory, "manifest.json.tmp")
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"format_version": 4, "scenarios": [{"plat')
    return path

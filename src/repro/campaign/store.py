"""On-disk result store: JSONL checkpoints plus a campaign manifest.

Layout of a store directory::

    <store>/
        manifest.json     # campaign description + config hash (+ shard spec)
        results.jsonl     # one JSON record per completed work unit (append-only)
        quarantine.jsonl  # typed error records of quarantined units (optional)

The store is append-only and crash-tolerant: every completed unit is written
and flushed as one line, and a trailing partial line (from a killed process)
is ignored on load.  The manifest is written atomically (tmp + fsync +
``os.replace``), so a crash mid-write can never leave an unparseable
manifest — at worst a stale ``manifest.json.tmp`` lingers, which
initialisation removes.  Re-opening a store with a different configuration
hash raises :class:`ConfigMismatchError` so results from mismatched
campaigns are never mixed; re-opening a *shard* store under a different
shard spec is refused the same way (each shard owns its own directory, and
``campaign merge`` is the one path that combines them).  Commands read a
store through :class:`StoreView`, which parses each JSONL file at most once.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from typing import Container, Dict, Iterator, List, Optional, Tuple

from .planner import (
    MODE_ANALYZE,
    CampaignPlan,
    WorkUnit,
    config_hash,
    manifest_format_version,
    manifest_shard,
    plan_from_manifest,
    shard_units,
)


class StoreError(RuntimeError):
    """Base error for campaign-store problems."""


class ConfigMismatchError(StoreError):
    """The store on disk was produced by a different campaign configuration."""


def write_json_atomic(path: str, payload: dict) -> None:
    """Write ``payload`` to ``path`` atomically (tmp + fsync + replace).

    The temporary sibling is flushed and fsynced before the atomic
    ``os.replace``, so a crash at any instant leaves either the old file,
    the new file, or a stale ``.tmp`` — never a torn target.
    """
    temporary = path + ".tmp"
    with open(temporary, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, path)


class CampaignStore:
    """Append-only result store for one campaign directory."""

    MANIFEST_NAME = "manifest.json"
    RESULTS_NAME = "results.jsonl"
    QUARANTINE_NAME = "quarantine.jsonl"

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)

    @property
    def manifest_path(self) -> str:
        """Path of the manifest file."""
        return os.path.join(self.directory, self.MANIFEST_NAME)

    @property
    def results_path(self) -> str:
        """Path of the JSONL results file."""
        return os.path.join(self.directory, self.RESULTS_NAME)

    @property
    def quarantine_path(self) -> str:
        """Path of the JSONL quarantine file (error records of failed units)."""
        return os.path.join(self.directory, self.QUARANTINE_NAME)

    def exists(self) -> bool:
        """Whether the directory already holds a campaign manifest."""
        return os.path.isfile(self.manifest_path)

    # ------------------------------------------------------------------ #
    # Manifest
    # ------------------------------------------------------------------ #
    def initialize(self, manifest: dict) -> dict:
        """Create the store for ``manifest`` or re-open a matching one.

        Returns the manifest that is now on disk.  Raises
        :class:`ConfigMismatchError` when the directory already holds a
        campaign with a different configuration hash, or a shard store
        with a different shard spec (shards never share a directory —
        combine them with ``campaign merge`` instead).  A stale
        ``manifest.json.tmp`` left by a crash between the temporary write
        and its atomic replace is removed.
        """
        os.makedirs(self.directory, exist_ok=True)
        stale = self.manifest_path + ".tmp"
        if os.path.exists(stale):
            # Leftover of a writer killed before its os.replace: the real
            # manifest (if any) is intact, the tmp is garbage.
            os.unlink(stale)
        if self.exists():
            existing = self.read_manifest()
            self._check_hash(existing, manifest["config_hash"])
            self._check_shard(existing, manifest.get("shard"))
            return existing
        write_json_atomic(self.manifest_path, manifest)
        return manifest

    def read_manifest(self) -> dict:
        """Load and validate the manifest from disk."""
        if not self.exists():
            raise StoreError(
                f"{self.directory!r} holds no campaign (missing "
                f"{self.MANIFEST_NAME}); run 'campaign run' first"
            )
        with open(self.manifest_path) as handle:
            manifest = json.load(handle)
        if not isinstance(manifest, dict):
            raise StoreError(
                f"{self.manifest_path!r} is not a campaign manifest"
            )
        # Each mode versions independently (simulate provenance can change
        # without invalidating analyze stores — see ``planner``): the store
        # is checked against the version in force for *its* mode.
        expected = manifest_format_version(manifest.get("mode", MODE_ANALYZE))
        version = manifest.get("format_version")
        if version != expected:
            raise StoreError(
                f"store {self.directory!r} uses manifest format {version!r}, "
                f"but this version of the code reads format {expected} for "
                f"{manifest.get('mode', MODE_ANALYZE)}-mode campaigns; "
                "re-run the campaign into a fresh --store directory"
            )
        try:
            recomputed = config_hash(manifest)
        except (KeyError, TypeError) as error:
            raise StoreError(
                f"{self.manifest_path!r} is not a campaign manifest "
                f"(missing or malformed field: {error})"
            ) from error
        if manifest.get("config_hash") != recomputed:
            raise ConfigMismatchError(
                f"manifest in {self.directory!r} is corrupt: stored config "
                f"hash {manifest.get('config_hash')!r} does not match its "
                f"own contents ({recomputed!r})"
            )
        return manifest

    def _check_hash(self, manifest: dict, expected_hash: str) -> None:
        if manifest["config_hash"] != expected_hash:
            raise ConfigMismatchError(
                f"store {self.directory!r} was produced by a different "
                f"campaign configuration (stored hash "
                f"{manifest['config_hash'][:12]}…, requested "
                f"{expected_hash[:12]}…); use a fresh --store directory or "
                "rerun with the original configuration"
            )

    def _check_shard(self, manifest: dict, expected_shard) -> None:
        """Refuse re-opening a shard store under a different shard spec."""
        stored = manifest.get("shard")
        if stored != expected_shard:
            def spec(value):
                if not value:
                    return "unsharded"
                return f"shard {value['index']}/{value['count']}"
            raise ConfigMismatchError(
                f"store {self.directory!r} holds {spec(stored)} of this "
                f"campaign but {spec(expected_shard)} was requested; each "
                "shard needs its own --store directory (combine them with "
                "'campaign merge')"
            )

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def _append_line(self, path: str, record: dict) -> None:
        """Append one record as a flushed, fsynced JSONL line to ``path``."""
        if "unit_id" not in record:
            raise StoreError("result record lacks a unit_id")
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with open(path, "a+b") as handle:
            # Heal a torn trailing line left by a killed writer: without the
            # newline the new record would merge into the partial line and
            # every reader would silently skip both.
            handle.seek(0, os.SEEK_END)
            if handle.tell():
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
            handle.write(line.encode("utf-8") + b"\n")
            handle.flush()
            os.fsync(handle.fileno())

    def append(self, record: dict) -> None:
        """Append one completed-unit record (flushed immediately)."""
        record = dict(record)
        record.setdefault("completed_at", _utcnow_iso())
        self._append_line(self.results_path, record)

    def append_quarantine(self, record: dict) -> None:
        """Append one quarantined-unit error record (flushed immediately).

        Quarantine records live in ``quarantine.jsonl`` — a *sibling* of
        the results file — so ``results.jsonl`` keeps holding successful
        records only and its bytes stay comparable across faulty and
        fault-free runs of the same campaign.
        """
        record = dict(record)
        record.setdefault("quarantined_at", _utcnow_iso())
        self._append_line(self.quarantine_path, record)

    def iter_records(self, path: Optional[str] = None) -> Iterator[dict]:
        """Stream completed-unit records in file order.

        Only *complete* lines (terminated by a newline) are yielded: a torn
        trailing line from a killed writer is dropped — :meth:`append`
        newline-terminates a torn tail before writing, turning it into a
        malformed complete line.  Malformed complete lines are skipped, and
        duplicate ``unit_id`` filtering is left to the caller.  ``path``
        overrides the file read (the quarantine loader reuses this).
        """
        if path is None:
            path = self.results_path
        if not os.path.isfile(path):
            return
        with open(path, "rb") as handle:
            for raw_line in handle:
                if not raw_line.endswith(b"\n"):
                    # Torn final write of an interrupted run: the unit will
                    # simply be re-executed on resume.
                    return
                line = raw_line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict) and record.get("unit_id"):
                    yield record

    def load_records(self) -> Dict[str, dict]:
        """All completed-unit records, keyed by ``unit_id``.

        A trailing partial line (killed writer) is ignored; for duplicate
        unit ids the first record wins, so resumed runs never overwrite
        earlier checkpoints.
        """
        records: Dict[str, dict] = {}
        for record in self.iter_records():
            unit_id = record["unit_id"]
            if unit_id not in records:
                records[unit_id] = record
        return records

    def load_quarantine(self) -> Dict[str, dict]:
        """All quarantined-unit error records, keyed by ``unit_id``.

        The *last* record wins per unit (a later run's quarantine verdict
        supersedes an earlier one — the opposite of :meth:`load_records`,
        where the first checkpoint is immutable truth).  Torn trailing
        lines and malformed complete lines are tolerated exactly like the
        results file.  Whether a unit is still *failed* is
        :func:`unresolved_quarantine`'s call.
        """
        records: Dict[str, dict] = {}
        for record in self.iter_records(path=self.quarantine_path):
            records[record["unit_id"]] = record
        return records

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CampaignStore({self.directory!r})"


def unresolved_quarantine(
    quarantine: Dict[str, dict], completed: Container[str]
) -> Dict[str, dict]:
    """The ``quarantine`` records of units not in ``completed`` (the rest healed)."""
    return {
        unit_id: record
        for unit_id, record in quarantine.items()
        if unit_id not in completed
    }


@dataclass(frozen=True)
class StoreView:
    """One read of a campaign store, shared by every command that reads it.

    ``results.jsonl`` is parsed on first use of :attr:`records`, and
    ``quarantine.jsonl`` on first use of :attr:`unresolved`; neither again.
    """

    store: CampaignStore
    manifest: dict
    plan: CampaignPlan

    @classmethod
    def open(cls, directory: str) -> "StoreView":
        """Read the manifest in ``directory`` and rebuild its plan."""
        store = CampaignStore(directory)
        manifest = store.read_manifest()
        return cls(store, manifest, plan_from_manifest(manifest))

    @property
    def shard(self) -> Optional[Tuple[int, int]]:
        """The manifest's ``(index, count)`` shard spec, or ``None``."""
        return manifest_shard(self.manifest)

    @cached_property
    def units(self) -> List[WorkUnit]:
        """The store's slice of the plan: its shard, or every unit."""
        shard = self.shard
        return shard_units(self.plan.units, *shard) if shard else self.plan.units

    @cached_property
    def records(self) -> Dict[str, dict]:
        """:meth:`CampaignStore.load_records` of the store."""
        return self.store.load_records()

    @cached_property
    def unresolved(self) -> Dict[str, dict]:
        """Quarantine records of units with no record in :attr:`records`."""
        return unresolved_quarantine(self.store.load_quarantine(), self.records)

    @cached_property
    def scenario_progress(self) -> List[Tuple[str, int, int]]:
        """``(scenario_id, done, units)`` per scenario of the slice, plan order."""
        counts: Dict[str, List[int]] = {}
        for unit in self.units:
            slot = counts.setdefault(unit.scenario.scenario_id, [0, 0])
            slot[0] += unit.unit_id in self.records
            slot[1] += 1
        return [(scenario_id, *slot) for scenario_id, slot in counts.items()]

    @property
    def done(self) -> int:
        """Units of the slice that have a record."""
        return sum(done for _, done, _ in self.scenario_progress)


def _utcnow_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")

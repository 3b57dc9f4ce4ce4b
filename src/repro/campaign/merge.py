"""Merge partial campaign stores — shards or interrupted hosts — into one.

A sharded campaign (``campaign run --shard I/N``) runs each deterministic
slice of the work-unit grid in its own store directory, possibly on its
own host; a crashed host leaves a partial store behind.  :func:`merge_stores`
combines any number of such partial stores into a single store that
``report``/``resume``/``status``/``profile`` consume unchanged:

* Every source (and the destination, when it already exists) must carry
  the **same configuration hash** and manifest format version — merging
  results of different campaigns is refused outright.
* Work units are **deduplicated by unit id**.  Units are deterministic, so
  duplicate records must agree; they are verified field-by-field (ignoring
  :data:`VOLATILE_FIELDS`, which the writing host stamps) and a
  disagreement is a hard :class:`MergeConflictError` — it means two runs
  computed different results for the same seeded unit, which is corruption
  or a soundness bug, never something to paper over.
* Merged records are written in **plan order**, so a merged store's
  ``results.jsonl`` is byte-comparable to the store of one uninterrupted
  serial run (module volatile fields).
* Quarantine records travel along, except those **healed** by a
  successful record from any source (a unit that failed on one shard but
  completed on another is not failed).

The merged manifest is the shared campaign manifest without any shard
spec: the merged store owns the whole grid.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from .planner import plan_from_manifest
from .store import CampaignStore, StoreError, unresolved_quarantine

#: Record fields stamped by the writing host rather than computed by the
#: unit — legitimately different between two executions of the same unit,
#: so ignored when verifying that duplicate records agree.
VOLATILE_FIELDS = ("completed_at", "elapsed_seconds")


class MergeError(StoreError):
    """A store merge could not be performed (mismatched campaigns, etc.)."""


class MergeConflictError(MergeError):
    """Two sources hold *different* results for the same work unit.

    Work units are deterministic functions of their seed, so this is never
    benign: one of the stores is corrupt or was produced by diverging
    code.  The merge stops without writing the conflicting unit.
    """


@dataclass(frozen=True)
class MergeReport:
    """What a completed merge did — the CLI's summary payload."""

    destination: str
    sources: Tuple[str, ...]
    #: Distinct completed units now in the destination store.
    units: int
    #: Total units of the campaign plan (``units == total_units`` means the
    #: merged store is complete).
    total_units: int
    #: Duplicate records encountered across sources (each verified equal).
    duplicates: int
    #: Records newly appended to the destination (0 when everything was
    #: already there).
    written: int
    #: Unresolved quarantine records carried into the destination.
    quarantined: int
    #: Quarantine records dropped because some source completed the unit.
    healed: int

    @property
    def complete(self) -> bool:
        """Whether the merged store covers the whole campaign plan."""
        return self.units >= self.total_units


def _comparable(record: dict) -> str:
    """Canonical form of a record with host-stamped fields stripped."""
    payload = {
        key: value
        for key, value in record.items()
        if key not in VOLATILE_FIELDS
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def merge_stores(sources: Sequence[str], destination: str) -> MergeReport:
    """Merge the partial stores ``sources`` into ``destination``.

    The destination may be a fresh directory or an existing store of the
    same campaign (its records participate in deduplication and are never
    rewritten).  Returns a :class:`MergeReport`; raises :class:`MergeError`
    on mismatched campaigns or malformed inputs and
    :class:`MergeConflictError` when two sources disagree on a unit.
    """
    if not sources:
        raise MergeError("nothing to merge: no source stores given")
    dest_real = os.path.realpath(destination)
    for source in sources:
        if os.path.realpath(source) == dest_real:
            raise MergeError(
                f"destination {destination!r} is also a merge source; "
                "merge into a separate directory"
            )

    source_stores = [CampaignStore(directory) for directory in sources]
    manifests = [store.read_manifest() for store in source_stores]
    reference = manifests[0]
    for store, manifest in zip(source_stores[1:], manifests[1:]):
        if manifest["config_hash"] != reference["config_hash"]:
            raise MergeError(
                f"store {store.directory!r} holds a different campaign "
                f"(config hash {manifest['config_hash'][:12]}…) than "
                f"{source_stores[0].directory!r} "
                f"({reference['config_hash'][:12]}…); only shards of one "
                "campaign can be merged"
            )

    # The merged store owns the whole grid: same campaign, no shard spec.
    merged_manifest = {
        key: value for key, value in reference.items() if key != "shard"
    }
    plan = plan_from_manifest(merged_manifest)
    known_ids = set(plan.unit_ids)

    dest_store = CampaignStore(destination)
    dest_store.initialize(merged_manifest)
    existing = dest_store.load_records()

    merged: Dict[str, dict] = dict(existing)
    origin: Dict[str, str] = {
        unit_id: destination for unit_id in existing
    }
    duplicates = 0
    for store, manifest in zip(source_stores, manifests):
        for unit_id, record in store.load_records().items():
            if unit_id not in known_ids:
                raise MergeError(
                    f"store {store.directory!r} holds unit {unit_id!r}, "
                    "which is not part of this campaign's plan; the store "
                    "is corrupt"
                )
            held = merged.get(unit_id)
            if held is None:
                merged[unit_id] = record
                origin[unit_id] = store.directory
                continue
            duplicates += 1
            if _comparable(held) != _comparable(record):
                raise MergeConflictError(
                    f"unit {unit_id!r} differs between "
                    f"{origin[unit_id]!r} and {store.directory!r}; "
                    "deterministic units must agree — one store is corrupt "
                    "or was produced by diverging code"
                )

    written = 0
    for unit_id in plan.unit_ids:
        if unit_id in merged and unit_id not in existing:
            dest_store.append(merged[unit_id])
            written += 1

    # Quarantine records: the last verdict per unit wins across sources
    # (in argument order); a unit completed anywhere is healed.
    quarantine: Dict[str, dict] = dict(dest_store.load_quarantine())
    already = set(quarantine)
    for store in source_stores:
        quarantine.update(store.load_quarantine())
    unresolved = unresolved_quarantine(quarantine, merged)
    for unit_id in sorted(unresolved):
        if unit_id not in already:
            dest_store.append_quarantine(unresolved[unit_id])

    return MergeReport(
        destination=destination,
        sources=tuple(store.directory for store in source_stores),
        units=len(merged),
        total_units=len(plan.unit_ids),
        duplicates=duplicates,
        written=written,
        quarantined=len(unresolved),
        healed=len(quarantine) - len(unresolved),
    )

"""Complete-path enumeration for the path-oriented (EP) analysis.

The EP variant of the DPCP-p analysis computes a WCRT bound for every
complete path of a task's DAG and takes the maximum (Eq. (1)).  Two practical
concerns are handled here:

* Many paths are *analysis-equivalent*: the bound only depends on the path
  length :math:`L(\\lambda)` and on the per-resource request counts
  :math:`N^\\lambda_{i,q}`, so paths are deduplicated by that signature.
* The number of complete paths can be exponential.  The enumerator accepts a
  cap; when the cap is exceeded the result is flagged as *not exhaustive* and
  callers fall back to the (sound but more pessimistic) EN-style bound.

The default enumeration algorithm is a dynamic program over analysis
signatures: partial signatures are propagated along the DAG in topological
order and deduplicated at every vertex, so the cost scales with the number
of *distinct* signatures rather than with the (possibly exponential) number
of raw paths — no path is ever walked individually.  The raw-path cap is
enforced by the same capped O(V+E) counting pass the walk uses.  The
original depth-first walk over raw paths is retained (``algorithm="walk"``)
as a reference oracle.

**Integer request codes.**  A path's per-resource request vector is one
Python int with a fixed bit field per requested resource, each field wide
enough for the task's total request count on that resource (no path can
exceed it, so fields never carry into each other).  Merging a partial path
with a vertex is then ``code + vertex_code``, and two request vectors are
equal exactly when their codes are.  The DP keys partial signatures on
``(round(length, 9), code)`` — the same equivalence as
:meth:`PathProfile.signature`'s ``(round(length, 9), sorted request tuple)``
— so the per-vertex signature counts, and with them every cap trip, are
those of the tuple-keyed DP this replaced.  Codes are arbitrary-precision
ints; only decoding them into the ``counts`` matrix needs care (tasks with
many heavily requested resources need more than 63 bits, see
:func:`_decode_counts`).

**No representative paths.**  The DP value is the first-seen path's exact
length plus its on-path non-critical WCET (Lemma 5's on-path term), summed
vertex by vertex from :meth:`DAGTask.vertex_non_critical_wcets`, so no
vertex tuples are built.  Results expose the enumeration as arrays
(``resource_ids``, ``lengths``, ``counts``, ``onpath_noncrit``) that the
DPCP-p kernel consumes directly; ``profiles`` is a lazy
:class:`PathProfile` view over them whose rows carry ``vertices=()``.  The
walk fills the same arrays from its vertex-bearing profiles, which the
reference engine keeps using (:meth:`PathEnumerator.walk`).

Partial signatures are deduplicated at the same rounded-length granularity
as complete-path signatures, and extending every signature at a vertex by one
fixed suffix preserves distinctness (up to rounding right at a signature
boundary) — so the number of distinct partial signatures at any vertex tracks
the number of distinct complete signatures, tripping the signature cap mid-DP
implies the walk would (essentially) not have been exhaustive either, and the
cap/``exhaustive`` semantics of the walk are preserved.
"""

from __future__ import annotations

import operator
import weakref
from collections.abc import Sequence as _SequenceABC
from functools import reduce
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..model.dag import PathProfile
from ..model.task import DAGTask
from ..obs.telemetry import active as _active_telemetry

#: Default cap on the number of *distinct* path signatures kept per task.
DEFAULT_MAX_SIGNATURES = 4096

#: Default cap on the number of raw paths covered per task.
DEFAULT_MAX_PATHS = 200_000

#: Enumeration algorithms: the signature-space dynamic program (default) and
#: the raw depth-first path walk kept as a reference oracle.
ALGORITHM_DP = "dp"
ALGORITHM_WALK = "walk"


class PathEnumerationResult:
    """Outcome of enumerating the complete paths of one task.

    One row per distinct analysis signature; row 0 is a longest one.

    Attributes
    ----------
    resource_ids:
        The ``U`` resources the task's vertices request, ascending; the
        columns of ``counts``.
    lengths:
        ``(P,)`` path lengths :math:`L(\\lambda)` (exact floats of one path
        per signature).
    counts:
        ``(P, U)`` int64 on-path request counts :math:`N^\\lambda_{i,q}`.
    onpath_noncrit:
        ``(P,)`` non-critical WCET of the vertices on that same path
        (Lemma 5's on-path term).
    exhaustive:
        ``True`` when every complete path is covered by the rows;
        ``False`` when a cap was hit and the rows only cover a subset.
    total_paths_seen:
        Number of raw paths covered before stopping (the exact complete-path
        count when the enumeration is exhaustive).
    profiles:
        The rows as :class:`PathProfile` objects: the walk's own
        vertex-bearing profiles, or a lazy view whose rows carry
        ``vertices=()`` for the signature DP.  ``len(profiles)`` is ``P``.
    """

    __slots__ = (
        "resource_ids",
        "lengths",
        "counts",
        "onpath_noncrit",
        "exhaustive",
        "total_paths_seen",
        "_profiles",
        "__weakref__",
    )

    def __init__(
        self,
        resource_ids: Tuple[int, ...],
        lengths: np.ndarray,
        counts: np.ndarray,
        onpath_noncrit: np.ndarray,
        exhaustive: bool,
        total_paths_seen: int,
        profiles: Optional[List[PathProfile]] = None,
    ) -> None:
        self.resource_ids = resource_ids
        self.lengths = lengths
        self.counts = counts
        self.onpath_noncrit = onpath_noncrit
        self.exhaustive = exhaustive
        self.total_paths_seen = total_paths_seen
        self._profiles = profiles

    @property
    def profiles(self) -> Sequence[PathProfile]:
        """The rows as path profiles (see the class docstring)."""
        if self._profiles is None:
            return SignatureProfiles(self)
        return self._profiles

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PathEnumerationResult(P={len(self.lengths)}, "
            f"exhaustive={self.exhaustive}, paths={self.total_paths_seen})"
        )


class SignatureProfiles(_SequenceABC):
    """Lazy :class:`PathProfile` sequence over a result's arrays.

    ``len()`` is free; indexing, slicing and iteration build profiles on
    demand, with ``vertices=()`` (the signature DP keeps no paths).
    """

    __slots__ = ("_result",)

    def __init__(self, result: PathEnumerationResult) -> None:
        self._result = result

    def __len__(self) -> int:
        return len(self._result.lengths)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        row = operator.index(index)
        size = len(self)
        if row < 0:
            row += size
        if not 0 <= row < size:
            raise IndexError("profile index out of range")
        result = self._result
        return PathProfile(
            vertices=(),
            length=float(result.lengths[row]),
            requests={
                rid: int(count)
                for rid, count in zip(result.resource_ids, result.counts[row])
                if count
            },
        )


def require_vertices(profile: PathProfile) -> None:
    """Reject a profile that carries a length but no vertices.

    Lemma 5's on-path term sums the non-critical WCET of
    ``profile.vertices``; a signature row of :class:`SignatureProfiles`
    (``vertices=()``) would silently count every vertex as off-path and
    yield a looser bound.  Per-path analyses call this first; take
    vertex-bearing profiles from :meth:`PathEnumerator.walk` or
    :meth:`DAGTask.path_profile` instead.
    """
    if not profile.vertices and profile.length > 0:
        raise ValueError(
            "path profile has no vertices (a signature row); per-path bounds "
            "need a vertex-bearing profile, e.g. from PathEnumerator.walk()"
        )


def _requested_resources(task: DAGTask) -> Tuple[Tuple[int, ...], List[int]]:
    """Resources the vertices request (ascending) and each one's total count.

    ``DAGTask`` reconciles its usages with the vertex requests at
    construction, so these are its used resources and their :math:`N_{i,q}`.
    """
    resource_ids = tuple(task.used_resources())
    return resource_ids, [task.request_count(rid) for rid in resource_ids]


def _code_layout(totals: Sequence[int]) -> Tuple[List[int], List[int], int]:
    """Bit-field ``(shifts, masks, total bits)`` of the request codes.

    Each field holds up to the task's total request count on its resource,
    which bounds every path's count, so sums of path codes never carry
    across fields.
    """
    shifts, masks = [], []
    bits = 0
    for total in totals:
        width = max(1, int(total).bit_length())
        shifts.append(bits)
        masks.append((1 << width) - 1)
        bits += width
    return shifts, masks, bits


def _decode_counts(
    codes: Sequence[int], shifts: Sequence[int], masks: Sequence[int]
) -> np.ndarray:
    """``(P, U)`` int64 request counts of the given request codes.

    Codes are split field by field on Python ints: a code may be wider than
    64 bits (many heavily requested resources), but every field fits int64.
    """
    P, U = len(codes), len(shifts)
    counts = np.empty((P, U), dtype=np.int64)
    for col, (shift, mask) in enumerate(zip(shifts, masks)):
        counts[:, col] = np.fromiter(
            ((code >> shift) & mask for code in codes), dtype=np.int64, count=P
        )
    return counts


def _longest_first(*rows: list) -> None:
    """Swap a longest row (first argmax of ``rows[0]``) to index 0, in place.

    A consumer that probes row 0 first (the scalar EP loop's early ``inf``
    break) then probes the critical path.  The EP bound is a maximum over
    rows, so the order never changes a result.
    """
    lengths = rows[0]
    best = max(range(len(lengths)), key=lengths.__getitem__, default=0)
    if best:
        for column in rows:
            column[0], column[best] = column[best], column[0]


def _from_profiles(
    task: DAGTask,
    profiles: List[PathProfile],
    exhaustive: bool,
    total_paths_seen: int,
) -> PathEnumerationResult:
    """Array view of vertex-bearing profiles (walk and fallback results)."""
    profiles = list(profiles)
    resource_ids, _totals = _requested_resources(task)
    noncrit = task.vertex_non_critical_wcets()
    lengths = [p.length for p in profiles]
    # Left-to-right float sums, as the DP accumulates them.
    onpath = [
        reduce(operator.add, map(noncrit.__getitem__, p.vertices), 0.0)
        for p in profiles
    ]
    _longest_first(lengths, onpath, profiles)
    counts = np.array(
        [[p.requests.get(rid, 0) for rid in resource_ids] for p in profiles],
        dtype=np.int64,
    ).reshape(len(profiles), len(resource_ids))
    return PathEnumerationResult(
        resource_ids=resource_ids,
        lengths=np.array(lengths, dtype=float),
        counts=counts,
        onpath_noncrit=np.array(onpath, dtype=float),
        exhaustive=exhaustive,
        total_paths_seen=total_paths_seen,
        profiles=profiles,
    )


#: Per-task enumeration cache: task -> (DAG edge count, result).
_Cache = weakref.WeakKeyDictionary


def _cached(cache: _Cache, task: DAGTask) -> Optional[PathEnumerationResult]:
    """The cached result for ``task``, unless its DAG gained edges since."""
    entry = cache.get(task)
    if entry is not None and entry[0] == task.dag.num_edges:
        return entry[1]
    return None


class PathEnumerator:
    """Enumerates and caches the path signatures of tasks.

    Parameters
    ----------
    max_signatures:
        Cap on distinct signatures retained per task.
    max_paths:
        Cap on raw paths covered per task.
    algorithm:
        ``"dp"`` (default) — the signature-space dynamic program, or
        ``"walk"`` — the reference depth-first walk over raw paths.

    Results are cached per live task object (a ``WeakKeyDictionary``), so a
    cache entry can never outlive — or be aliased onto — its task: the former
    ``(id(task), task_id)`` key could silently return a stale enumeration for
    a *different* task after the original was garbage collected and its
    ``id()`` recycled.  Entries are additionally keyed on the DAG's edge
    count, so the supported mutation (``DAG.add_edge``) invalidates them —
    mirroring ``DAGTask.critical_path_length``.
    """

    def __init__(
        self,
        max_signatures: int = DEFAULT_MAX_SIGNATURES,
        max_paths: int = DEFAULT_MAX_PATHS,
        algorithm: str = ALGORITHM_DP,
    ) -> None:
        if max_signatures < 1 or max_paths < 1:
            raise ValueError("enumeration caps must be positive")
        if algorithm not in (ALGORITHM_DP, ALGORITHM_WALK):
            raise ValueError(f"unknown enumeration algorithm {algorithm!r}")
        self.max_signatures = max_signatures
        self.max_paths = max_paths
        self.algorithm = algorithm
        self._cache = _Cache()
        self._walk_cache = _Cache()

    def enumerate(self, task: DAGTask) -> PathEnumerationResult:
        """Enumerate (and cache) the distinct path signatures of ``task``."""
        cached = _cached(self._cache, task)
        tel = _active_telemetry()
        if cached is not None:
            if tel is not None:
                tel.count("enumeration.cache.hits")
            return cached
        if self.algorithm == ALGORITHM_DP:
            result = self._enumerate_dp(task)
        else:
            result = self._enumerate_walk(task)
        if tel is not None:
            tel.count("enumeration.cache.misses")
            tel.count("enumeration.signatures", len(result.lengths))
            if not result.exhaustive:
                tel.count("enumeration.truncated")
        self._cache[task] = (task.dag.num_edges, result)
        return result

    def walk(self, task: DAGTask) -> PathEnumerationResult:
        """The reference walk's enumeration of ``task`` under the same caps.

        Its profiles carry real vertex tuples, which the straight-line
        reference analysis needs for Lemma 5.  Cached like
        :meth:`enumerate` but not counted: only the reference oracle calls it.
        """
        if self.algorithm == ALGORITHM_WALK:
            return self.enumerate(task)
        result = _cached(self._walk_cache, task)
        if result is None:
            result = self._enumerate_walk(task)
            self._walk_cache[task] = (task.dag.num_edges, result)
        return result

    # ------------------------------------------------------------------ #
    # Signature-space dynamic program (default)
    # ------------------------------------------------------------------ #
    def _enumerate_dp(self, task: DAGTask) -> PathEnumerationResult:
        """Propagate deduplicated partial signatures in topological order.

        The complete-path count is checked first (one capped O(V+E) counting
        pass, shared with the walk): astronomically many paths fall back to
        the critical path immediately.

        Otherwise each vertex holds a mapping ``(rounded length, request
        code) -> (exact length, on-path non-critical WCET)`` over the
        source-to-vertex paths ending at it, first-seen path winning.
        Deduplication happens at the reference signature granularity
        (``round(length, 9)``, matching ``PathProfile.signature()``), while
        the exact length travels in the value so the rows carry the same
        floats a raw walk would produce.  Keying on exact lengths would let
        paths that the walk treats as one signature (lengths differing below
        1e-9) inflate the per-vertex sets and trip the cap where the walk
        stays exhaustive.
        """
        dag = task.dag
        total_paths = dag.count_complete_paths(limit=self.max_paths + 1)
        if total_paths > self.max_paths:
            return self._truncated(task)

        order = dag.topological_order()
        pred_lists = dag.predecessor_lists()
        succ_lists = dag.successor_lists()

        resource_ids, totals = _requested_resources(task)
        shifts, masks, _bits = _code_layout(totals)
        shift_of = dict(zip(resource_ids, shifts))
        wcets = [v.wcet for v in task.vertices]
        noncrit = task.vertex_non_critical_wcets()
        codes = [
            sum(count << shift_of[rid] for rid, count in v.requests.items() if count > 0)
            for v in task.vertices
        ]
        cap = self.max_signatures
        sigs: Dict[int, Dict[Tuple[float, int], Tuple[float, float]]] = {}
        pending_succs = [len(succ_lists[v]) for v in range(dag.num_vertices)]
        for v in order:
            preds = pred_lists[v]
            wcet = wcets[v]
            own = noncrit[v]
            code = codes[v]
            if not preds:
                sigs[v] = {(round(wcet, 9), code): (wcet, own)}
            else:
                merged: Dict[Tuple[float, int], Tuple[float, float]] = {}
                for u in sorted(preds):
                    for (_rounded, prefix), (length, onpath) in sigs[u].items():
                        exact = length + wcet
                        key = (round(exact, 9), prefix + code)
                        if key not in merged:
                            merged[key] = (exact, onpath + own)
                if len(merged) > cap:
                    return self._truncated(task)
                sigs[v] = merged
            # Free per-vertex signature sets as soon as every successor has
            # consumed them (keeps peak memory proportional to the frontier).
            for u in preds:
                pending_succs[u] -= 1
                if pending_succs[u] == 0 and succ_lists[u]:
                    del sigs[u]

        rows: Dict[Tuple[float, int], Tuple[float, float]] = {}
        for sink in range(dag.num_vertices):
            if succ_lists[sink]:
                continue
            for key, value in sigs[sink].items():
                if key not in rows:
                    rows[key] = value
        if len(rows) > cap:
            return self._truncated(task)
        lengths = [value[0] for value in rows.values()]
        onpath = [value[1] for value in rows.values()]
        row_codes = [key[1] for key in rows]
        _longest_first(lengths, onpath, row_codes)
        return PathEnumerationResult(
            resource_ids=resource_ids,
            lengths=np.array(lengths, dtype=float),
            counts=_decode_counts(row_codes, shifts, masks),
            onpath_noncrit=np.array(onpath, dtype=float),
            exhaustive=True,
            total_paths_seen=total_paths,
        )

    def _truncated(self, task: DAGTask) -> PathEnumerationResult:
        """Cap-exceeded fallback: the critical path only, flagged non-exhaustive.

        Callers treat any non-exhaustive enumeration by falling back to the
        EN-style bound, which dominates every per-path bound — so the choice
        of retained rows does not affect the final task bound.
        """
        return _from_profiles(task, [task.critical_path_profile()], False, 0)

    # ------------------------------------------------------------------ #
    # Reference raw-path walk
    # ------------------------------------------------------------------ #
    def _enumerate_walk(self, task: DAGTask) -> PathEnumerationResult:
        """The original depth-first walk over raw paths (reference oracle)."""
        # Quick pre-check: if the path count is astronomically large, skip the
        # walk entirely and only report the critical path (non-exhaustive).
        approx_count = task.dag.count_complete_paths(limit=self.max_paths + 1)
        if approx_count > self.max_paths:
            return self._truncated(task)
        profiles: Dict[Tuple, PathProfile] = {}
        exhaustive = True
        seen = 0
        for vertices in task.dag.iter_complete_paths():
            seen += 1
            profile = task.path_profile(vertices)
            signature = profile.signature()
            if signature not in profiles:
                if len(profiles) >= self.max_signatures:
                    # The cap is already full: a further *distinct* signature
                    # makes the walk non-exhaustive.  (Checking before the
                    # insert keeps the result at max_signatures profiles; the
                    # former post-insert check leaked one extra profile.)
                    exhaustive = False
                    break
                profiles[signature] = profile
            if seen >= self.max_paths:
                exhaustive = seen >= approx_count
                break

        if not profiles:
            profiles_list = [task.critical_path_profile()]
        else:
            profiles_list = list(profiles.values())
        return _from_profiles(task, profiles_list, exhaustive, seen)

    def clear(self) -> None:
        """Drop all cached enumerations."""
        self._cache.clear()
        self._walk_cache.clear()

    # The cache holds weak references and is inherently per-process; campaign
    # workers receive protocol objects (and their enumerators) via pickle, so
    # serialization ships the configuration and starts with an empty cache.
    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_cache"], state["_walk_cache"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._cache = _Cache()
        self._walk_cache = _Cache()


def critical_path_only(task: DAGTask) -> PathEnumerationResult:
    """A degenerate enumeration containing only the critical path.

    Used by the EN-style analyses, which reason about the longest path and
    treat the per-resource request counts as free variables.
    """
    return _from_profiles(task, [task.critical_path_profile()], False, 1)

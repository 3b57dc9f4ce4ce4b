"""Complete-path enumeration for the path-oriented (EP) analysis.

The EP variant of the DPCP-p analysis computes a WCRT bound for every
complete path of a task's DAG and takes the maximum (Eq. (1)).  Two practical
concerns are handled here:

* Many paths are *analysis-equivalent*: every term of the bound depends
  only on the per-resource request counts :math:`N^\\lambda_{i,q}`, apart
  from the path length :math:`L(\\lambda)` and the path's critical-section
  time (which together give Lemma 5's on-path non-critical WCET), and the
  bound does not decrease in either.  So one row per distinct request
  vector, carrying both maxima over the paths that share it, dominates all
  of them.
* The number of complete paths can be exponential.  The enumerator accepts
  caps; when one is exceeded the result is flagged as *not exhaustive* and
  callers fall back to the (sound but more pessimistic) EN-style bound.

:meth:`PathEnumerator.enumerate` runs a dynamic program over request codes:
partial paths are propagated along the DAG in topological order and merged
per code at every vertex, so the cost scales with the number of *distinct*
request vectors rather than with the (possibly exponential) number of raw
paths — no path is ever walked individually.  The raw-path cap is enforced
by the same capped O(V+E) counting pass the walk uses.  The original
depth-first walk over raw paths is retained as a reference oracle, reached
only through :meth:`PathEnumerator.walk`.

**Integer request codes.**  A path's per-resource request vector is one
Python int with a fixed bit field per requested resource, each field wide
enough for the task's total request count on that resource (no path can
exceed it, so fields never carry into each other).  Merging a partial path
with a vertex is then ``code + vertex_code``, and two request vectors are
equal exactly when their codes are.  Codes are arbitrary-precision ints;
only decoding them into the ``counts`` matrix needs care (tasks with many
heavily requested resources need more than 63 bits, see
:func:`_decode_counts`).

**One row per code.**  The DP value of a code is a pair: the longest path's
length ``L`` and the largest critical-section time ``D`` (WCET minus
:meth:`DAGTask.vertex_non_critical_wcets`, summed along the path) over the
paths with that code.  A row reports ``lengths = L`` and
``onpath_noncrit = L - D``; DESIGN.md ("The EP path-signature cap and the
signature-space enumerator") shows why its Theorem 1 bound dominates every
path of the code and equals the longest one's when no critical section
exceeds its vertex's WCET.  No vertex tuples are built.  Results expose the
enumeration as arrays (``resource_ids``, ``lengths``, ``counts``,
``onpath_noncrit``) that the DPCP-p kernel consumes directly; ``profiles``
is a lazy :class:`PathProfile` view over them whose rows carry
``vertices=()``.  The walk fills the same arrays from its vertex-bearing
profiles, which the reference engine keeps using
(:meth:`PathEnumerator.walk`).

**The cap is exact.**  Extending every code at a vertex by one fixed suffix
code is injective, so no vertex ever holds more codes than the task has
distinct complete codes: the DP is exhaustive exactly when those number at
most ``max_signatures``.
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

#: Default cap on the number of distinct request codes (rows) kept per task.
DEFAULT_MAX_SIGNATURES = 4096

#: Default cap on the number of raw paths covered per task.
DEFAULT_MAX_PATHS = 200_000


class PathEnumerationResult:
    """Outcome of enumerating the complete paths of one task.

    One row per distinct analysis signature (a request code for the DP, a
    ``PathProfile.signature()`` for the walk); row 0 is a longest one.

    Attributes
    ----------
    resource_ids:
        The ``U`` resources the task's vertices request, ascending; the
        columns of ``counts``.
    lengths:
        ``(P,)`` path lengths :math:`L(\\lambda)`: for the DP the longest
        path of the row's code, for the walk one path per signature.
    counts:
        ``(P, U)`` int64 on-path request counts :math:`N^\\lambda_{i,q}`.
    onpath_noncrit:
        ``(P,)`` Lemma 5's on-path non-critical WCET: for the DP
        ``lengths`` minus the largest on-path critical-section time of the
        code, for the walk that of the row's path.
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


def _merge_max(
    maps: Sequence[Dict[int, Tuple[float, float]]]
) -> Dict[int, Tuple[float, float]]:
    """Union of ``code -> (L, D)`` maps, taking the elementwise maximum.

    A single map is returned as is (callers only read the result).
    """
    if len(maps) == 1:
        return maps[0]
    merged = dict(maps[0])
    for other in maps[1:]:
        for code, (length, cs) in other.items():
            old = merged.get(code)
            if old is None:
                merged[code] = (length, cs)
            elif length > old[0] or cs > old[1]:
                merged[code] = (max(length, old[0]), max(cs, old[1]))
    return merged


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
    """Enumerates and caches the per-code path rows of tasks.

    Parameters
    ----------
    max_signatures:
        Cap on the distinct complete request codes of a task (the DP's
        rows).  Exact: the DP is exhaustive iff the task has at most this
        many codes.  The walk ignores it.
    max_paths:
        Cap on raw paths covered per task.

    :meth:`enumerate` runs the code-keyed dynamic program;
    :meth:`walk` runs the reference depth-first walk over raw paths.

    Results are cached per live task object (a ``WeakKeyDictionary``), so a
    cache entry can never outlive — or be aliased onto — its task: the former
    ``(id(task), task_id)`` key could silently return a stale enumeration for
    a *different* task after the original was garbage collected and its
    ``id()`` recycled.  Entries are additionally keyed on the DAG's edge
    count, so the supported mutations (``DAG.add_edge``,
    ``DAG.add_forward_edges``) invalidate them —
    mirroring ``DAGTask.critical_path_length``.
    """

    def __init__(
        self,
        max_signatures: int = DEFAULT_MAX_SIGNATURES,
        max_paths: int = DEFAULT_MAX_PATHS,
    ) -> None:
        if max_signatures < 1 or max_paths < 1:
            raise ValueError("enumeration caps must be positive")
        self.max_signatures = max_signatures
        self.max_paths = max_paths
        self._cache = _Cache()
        self._walk_cache = _Cache()

    def enumerate(self, task: DAGTask) -> PathEnumerationResult:
        """Enumerate (and cache) one dominating row per request code of ``task``."""
        cached = _cached(self._cache, task)
        tel = _active_telemetry()
        if cached is not None:
            if tel is not None:
                tel.count("enumeration.cache.hits")
            return cached
        result = self._enumerate_dp(task)
        if tel is not None:
            tel.count("enumeration.cache.misses")
            tel.count("enumeration.signatures", len(result.lengths))
            if not result.exhaustive:
                tel.count("enumeration.truncated")
        self._cache[task] = (task.dag.num_edges, result)
        return result

    def walk(self, task: DAGTask) -> PathEnumerationResult:
        """The reference walk's enumeration of ``task`` under the same path cap.

        Its profiles carry real vertex tuples, which the straight-line
        reference analysis needs for Lemma 5.  Cached like
        :meth:`enumerate` but not counted: only the reference oracle calls it.
        """
        result = _cached(self._walk_cache, task)
        if result is None:
            result = self._enumerate_walk(task)
            self._walk_cache[task] = (task.dag.num_edges, result)
        return result

    # ------------------------------------------------------------------ #
    # Code-keyed dynamic program
    # ------------------------------------------------------------------ #
    def _enumerate_dp(self, task: DAGTask) -> PathEnumerationResult:
        """Propagate per-code path maxima in topological order.

        The complete-path count is checked first (one capped O(V+E) counting
        pass, shared with the walk): astronomically many paths fall back to
        the critical path immediately.

        Otherwise each vertex maps the request code of every source-to-vertex
        path ending at it to one pair: the longest such path's length ``L``
        and the largest critical-section time ``D`` (``wcet - C'`` summed
        along the path, with ``C'`` from
        :meth:`DAGTask.vertex_non_critical_wcets`).  Pairs merge by
        elementwise maximum, so the merge order does not matter.  Each
        complete code becomes one row with ``lengths = L`` and
        ``onpath_noncrit = L - D``, whose Theorem 1 bound dominates that of
        every path with the code (DESIGN.md, "The EP path-signature cap and
        the signature-space enumerator").

        Extending every code at a vertex by one fixed suffix code is
        injective, so no vertex holds more codes than the complete set: the
        DP trips the cap exactly when the task has more than
        ``max_signatures`` distinct complete codes.
        """
        dag = task.dag
        total_paths = dag.count_complete_paths(limit=self.max_paths + 1)
        if total_paths > self.max_paths:
            return self._truncated(task)

        pred_lists = dag.predecessor_lists()
        succ_lists = dag.successor_lists()

        resource_ids, totals = _requested_resources(task)
        shifts, masks, _bits = _code_layout(totals)
        shift_of = dict(zip(resource_ids, shifts))
        wcets = [v.wcet for v in task.vertices]
        crits = [w - c for w, c in zip(wcets, task.vertex_non_critical_wcets())]
        codes = [
            sum(count << shift_of[rid] for rid, count in v.requests.items() if count > 0)
            for v in task.vertices
        ]
        cap = self.max_signatures
        sigs: Dict[int, Dict[int, Tuple[float, float]]] = {}
        pending_succs = [len(succ_lists[v]) for v in range(dag.num_vertices)]
        for v in dag.topological_order():
            preds = pred_lists[v]
            merged = _merge_max([sigs[u] for u in preds]) if preds else {0: (0.0, 0.0)}
            wcet, crit, code = wcets[v], crits[v], codes[v]
            sigs[v] = {
                prefix + code: (length + wcet, cs + crit)
                for prefix, (length, cs) in merged.items()
            }
            if len(sigs[v]) > cap:
                return self._truncated(task)
            # Free per-vertex code sets as soon as every successor has
            # consumed them (keeps peak memory proportional to the frontier).
            for u in preds:
                pending_succs[u] -= 1
                if pending_succs[u] == 0 and succ_lists[u]:
                    del sigs[u]

        rows = _merge_max(
            [sigs[sink] for sink in range(dag.num_vertices) if not succ_lists[sink]]
        )
        if len(rows) > cap:  # several sinks, each within the cap
            return self._truncated(task)
        row_codes = list(rows)
        lengths = [length for length, _cs in rows.values()]
        onpath = [length - cs for length, cs in rows.values()]
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
        """The original depth-first walk over raw paths (reference oracle).

        Capped only by ``max_paths``, through the counting pass the DP
        shares: whenever the DP is exhaustive, so is the walk, and the
        reference engine sees every raw path's signature.
        """
        total_paths = task.dag.count_complete_paths(limit=self.max_paths + 1)
        if total_paths > self.max_paths:
            return self._truncated(task)
        profiles: Dict[Tuple, PathProfile] = {}
        for vertices in task.dag.iter_complete_paths():
            profile = task.path_profile(vertices)
            profiles.setdefault(profile.signature(), profile)
        return _from_profiles(task, list(profiles.values()), True, total_paths)

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


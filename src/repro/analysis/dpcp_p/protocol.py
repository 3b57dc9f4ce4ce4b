"""Top-level schedulability tests for DPCP-p (EP and EN analysis variants)."""

from __future__ import annotations

from typing import Optional

from ...model.platform import Platform
from ...model.task import TaskSet
from ..interfaces import SchedulabilityResult, SchedulabilityTest
from ..paths import DEFAULT_MAX_SIGNATURES, PathEnumerator
from .partition import partition_and_analyze
from .wcrt import DEFAULT_ENGINE, MODE_EN, MODE_EP, _check_engine

#: Default cap on a task's distinct path request codes (the enumerator's
#: rows) before the EP analysis falls back to the EN bound (see DESIGN.md, "The EP path-signature cap").  The
#: sweep config, campaign CLI, and protocol factories all default to this
#: one constant — the enumerator's own default — so the serial API and the
#: CLI cannot silently diverge.
DEFAULT_MAX_PATH_SIGNATURES = DEFAULT_MAX_SIGNATURES


class DpcpPTest(SchedulabilityTest):
    """Schedulability test for DPCP-p under federated scheduling.

    Parameters
    ----------
    mode:
        ``"EP"`` — enumerate complete paths (the paper's tighter analysis), or
        ``"EN"`` — enumerate the number of path requests per resource, as in
        the prior local-execution analyses [6], [11].
    max_path_signatures:
        Cap on the distinct request codes of a task's complete paths before
        the EP analysis falls back to the EN bound.
    engine:
        ``"kernel"`` (vectorized coefficients, default) or ``"reference"``
        (the straight-line oracle the kernel is validated against).
    """

    def __init__(
        self,
        mode: str = MODE_EP,
        max_path_signatures: int = DEFAULT_MAX_PATH_SIGNATURES,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        if mode not in (MODE_EP, MODE_EN):
            raise ValueError(f"unknown DPCP-p analysis mode {mode!r}")
        _check_engine(engine)
        self.mode = mode
        self.engine = engine
        self.name = f"DPCP-p-{mode}"
        self._enumerator: Optional[PathEnumerator] = (
            PathEnumerator(max_signatures=max_path_signatures)
            if mode == MODE_EP
            else None
        )

    def test(self, taskset: TaskSet, platform: Platform) -> SchedulabilityResult:
        """Partition tasks and resources, then bound every task's WCRT."""
        enumerator = (
            PathEnumerator(max_signatures=self._enumerator.max_signatures)
            if self._enumerator
            else None
        )
        return partition_and_analyze(
            taskset,
            platform,
            mode=self.mode,
            enumerator=enumerator,
            engine=self.engine,
        )


class DpcpPEpTest(DpcpPTest):
    """DPCP-p with the path-enumeration (EP) analysis."""

    def __init__(
        self,
        max_path_signatures: int = DEFAULT_MAX_PATH_SIGNATURES,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        super().__init__(
            mode=MODE_EP, max_path_signatures=max_path_signatures, engine=engine
        )


class DpcpPEnTest(DpcpPTest):
    """DPCP-p with the request-count-enumeration (EN) analysis."""

    def __init__(self, engine: str = DEFAULT_ENGINE) -> None:
        super().__init__(mode=MODE_EN, engine=engine)

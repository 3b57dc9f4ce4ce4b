"""Placeholder left by the deleted cross-taskset arena.

The arena that solved a whole utilization point in shared NumPy waves is
gone: every utilization point is evaluated by
:func:`repro.campaign.executor.execute_unit`.  The module remains only
because the benchmark's outside-in tracer (``perfbench/tracer.py``) still
imports it and requires this ``solve_batched`` binding; once the tracer
drops ``engine.arena``, this file is deleted.
"""

from .solver import solve_batched  # noqa: F401 - binding the tracer wraps

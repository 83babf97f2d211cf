"""ClusterSystem: :class:`repro.machine.system.System` under the name that
per-layer traces (``perfbench/layers.py``) wrap multi-node runs by.

The engines build it for multi-node specs; it adds nothing to ``System``.
"""

from __future__ import annotations

from repro.machine.system import System

__all__ = ["ClusterSystem"]


class ClusterSystem(System):
    """A :class:`~repro.machine.system.System`; only its name differs."""

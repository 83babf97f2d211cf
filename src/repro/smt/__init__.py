"""POWER5-like SMT processor substrate.

This subpackage simulates the hardware the paper ran on: a dual-core,
2-way SMT chip whose cores split decode cycles between their two hardware
contexts according to *hardware thread priorities* (paper Tables I-III).

Layers, from definition to measurement:

* :mod:`repro.smt.priorities` — the architectural priority levels,
  privilege rules and ``or-nop`` encodings (Table I).
* :mod:`repro.smt.decode` — the decode-slot arbitration law
  ``R = 2**(|X-Y|+1)`` and its special cases (Tables II and III).
* :mod:`repro.smt.instructions`, :mod:`repro.smt.functional_units`,
  :mod:`repro.smt.resources`, :mod:`repro.smt.cache` — the synthetic
  instruction streams and the shared back-end they contend for.
* :mod:`repro.smt.pipeline` — the cycle-level core model;
  :mod:`repro.smt.chip` — the chip's per-CPU priority and load slots.
* :mod:`repro.smt.throughput`, :mod:`repro.smt.analytic` — per-thread
  throughput as a function of (load pair, priority pair): measured from
  the cycle simulator (memoised) or from a closed-form model.
"""

from repro.smt.priorities import (
    HardwarePriority,
    PrivilegeLevel,
    PRIORITY_TABLE,
    PriorityLevelInfo,
    or_nop_for_priority,
    priority_for_or_nop,
    required_privilege,
    can_set_priority,
)
from repro.smt.decode import (
    ArbitrationMode,
    DecodeAllocation,
    slice_length,
    decode_allocation,
    decode_share,
    decode_pattern,
)
from repro.smt.instructions import InstrClass, LoadProfile, InstructionStream
from repro.smt.functional_units import FunctionalUnitSpec, FunctionalUnitPool, POWER5_FU_SPECS
from repro.smt.resources import SharedResourcePool, ResourceSpec, POWER5_RESOURCES
from repro.smt.cache import CacheLevel, CacheHierarchy, MemorySpec, POWER5_CACHES
from repro.smt.pipeline import CorePipeline, PipelineConfig, ThreadPerfCounters
from repro.smt.chip import Power5Chip, ChipConfig
from repro.smt.throughput import ThroughputTable, ThroughputResult
from repro.smt.analytic import AnalyticThroughputModel

__all__ = [
    "HardwarePriority",
    "PrivilegeLevel",
    "PRIORITY_TABLE",
    "PriorityLevelInfo",
    "or_nop_for_priority",
    "priority_for_or_nop",
    "required_privilege",
    "can_set_priority",
    "ArbitrationMode",
    "DecodeAllocation",
    "slice_length",
    "decode_allocation",
    "decode_share",
    "decode_pattern",
    "InstrClass",
    "LoadProfile",
    "InstructionStream",
    "FunctionalUnitSpec",
    "FunctionalUnitPool",
    "POWER5_FU_SPECS",
    "SharedResourcePool",
    "ResourceSpec",
    "POWER5_RESOURCES",
    "CacheLevel",
    "CacheHierarchy",
    "MemorySpec",
    "POWER5_CACHES",
    "CorePipeline",
    "PipelineConfig",
    "ThreadPerfCounters",
    "Power5Chip",
    "ChipConfig",
    "ThroughputTable",
    "ThroughputResult",
    "AnalyticThroughputModel",
]

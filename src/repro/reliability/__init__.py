"""Crash-safe storage and execution: the lake's reliability layer.

The paper's benchmark-lake requirement rests on *verified ground truth*;
this package is what makes "verified" mean something on a machine that
can lose power mid-write.  Four pieces:

* :mod:`repro.reliability.atomic` — tmp-file + fsync + rename write
  primitives; every durable lake artifact goes through them, so a crash
  at any instant leaves the previous contents intact.
* :mod:`repro.reliability.fsck` — integrity verification over a
  persisted lake (``repro fsck``): classifies missing, truncated,
  digest-mismatched, and orphaned artifacts, and can quarantine them.
* :mod:`repro.reliability.faults` — deterministic, seeded fault
  injection (``FaultPlan``) the crash-safety test suites and the CI
  chaos job script failures with.
* :mod:`repro.reliability.checkpoint` — wave-granular generation
  checkpoints backing ``repro generate --resume``.
"""

from repro.utils.lazy import lazy_exports

#: Public name -> the module defining it, imported on first use.
_EXPORTS = {
    "atomic_copy_file": "repro.reliability.atomic",
    "STREAM_CHUNK_BYTES": "repro.reliability.digest",
    "stream_digest": "repro.reliability.digest",
    "atomic_write_bytes": "repro.reliability.atomic",
    "atomic_write_json": "repro.reliability.atomic",
    "atomic_write_npz": "repro.reliability.atomic",
    "fsync_directory": "repro.reliability.atomic",
    "WaveCheckpoint": "repro.reliability.checkpoint",
    "FaultPlan": "repro.reliability.faults",
    "FaultRule": "repro.reliability.faults",
    "InjectedFault": "repro.reliability.faults",
    "active_plan": "repro.reliability.faults",
    "inject_faults": "repro.reliability.faults",
    "FsckFinding": "repro.reliability.fsck",
    "FsckReport": "repro.reliability.fsck",
    "fsck_lake": "repro.reliability.fsck",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

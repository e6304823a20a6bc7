"""The model lake: records, cards, stores, generation, corruption."""

from repro.utils.lazy import lazy_exports

#: Public name -> the module defining it, imported on first use.
_EXPORTS = {
    "CARD_CONTENT_FIELDS": "repro.lake.card",
    "ModelCard": "repro.lake.card",
    "ModelHistory": "repro.lake.record",
    "ModelRecord": "repro.lake.record",
    "WeightStore": "repro.lake.store",
    "ModelLake": "repro.lake.lake",
    "DEFAULT_TRANSFORM_MIX": "repro.lake.generator",
    "GeneratedLake": "repro.lake.generator",
    "LakeGenerator": "repro.lake.generator",
    "LakeGroundTruth": "repro.lake.generator",
    "LakeSpec": "repro.lake.generator",
    "generate_lake": "repro.lake.generator",
    "CardCorruptor": "repro.lake.corruption",
    "CorruptionReport": "repro.lake.corruption",
    "CORRUPTIBLE_FIELDS": "repro.lake.corruption",
    "load_lake": "repro.lake.persist",
    "migrate_lake": "repro.lake.persist",
    "save_lake": "repro.lake.persist",
    "ShardLayout": "repro.lake.shard",
    "LakeStatistics": "repro.lake.stats",
    "compute_statistics": "repro.lake.stats",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

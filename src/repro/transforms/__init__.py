"""Model derivation operators — the edges of the lake's version graphs."""

from repro.utils.lazy import lazy_exports

#: Public name -> the module defining it, imported on first use.
_EXPORTS = {
    "TRANSFORM_KINDS": "repro.transforms.base",
    "TransformRecord": "repro.transforms.base",
    "clone_model": "repro.transforms.base",
    "flatten_state": "repro.transforms.base",
    "weight_delta": "repro.transforms.base",
    "finetune_classifier": "repro.transforms.finetune",
    "finetune_language_model": "repro.transforms.finetune",
    "preference_tune": "repro.transforms.finetune",
    "LoRALinear": "repro.transforms.lora",
    "lora_adapt_classifier": "repro.transforms.lora",
    "edit_classifier": "repro.transforms.editing",
    "distill_classifier": "repro.transforms.distill",
    "prune_model": "repro.transforms.prune",
    "quantize_model": "repro.transforms.quantize",
    "merge_models": "repro.transforms.merge",
    "StitchedTextClassifier": "repro.transforms.stitch",
    "stitch_classifiers": "repro.transforms.stitch",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

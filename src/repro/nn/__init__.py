"""NumPy neural-network substrate: autograd, layers, models, training."""

from repro.utils.lazy import lazy_exports

#: Public name -> the module defining it, imported on first use.
_EXPORTS = {
    "Tensor": "repro.nn.autograd",
    "as_tensor": "repro.nn.autograd",
    "concat": "repro.nn.autograd",
    "stack": "repro.nn.autograd",
    "where": "repro.nn.autograd",
    "Module": "repro.nn.module",
    "ModuleList": "repro.nn.module",
    "Parameter": "repro.nn.module",
    "MLP": "repro.nn.layers",
    "Activation": "repro.nn.layers",
    "Dropout": "repro.nn.layers",
    "Embedding": "repro.nn.layers",
    "LayerNorm": "repro.nn.layers",
    "Linear": "repro.nn.layers",
    "Sequential": "repro.nn.layers",
    "MultiHeadSelfAttention": "repro.nn.attention",
    "TransformerBlock": "repro.nn.transformer",
    "TransformerLM": "repro.nn.transformer",
    "MLPClassifier": "repro.nn.models",
    "TextClassifier": "repro.nn.models",
    "build_model": "repro.nn.models",
    "cross_entropy": "repro.nn.losses",
    "kl_divergence": "repro.nn.losses",
    "mse_loss": "repro.nn.losses",
    "perplexity": "repro.nn.losses",
    "SGD": "repro.nn.optim",
    "Adam": "repro.nn.optim",
    "Optimizer": "repro.nn.optim",
    "TrainResult": "repro.nn.train",
    "evaluate_accuracy": "repro.nn.train",
    "example_gradient": "repro.nn.train",
    "flat_gradient": "repro.nn.train",
    "per_example_losses": "repro.nn.train",
    "train_classifier": "repro.nn.train",
    "train_language_model": "repro.nn.train",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

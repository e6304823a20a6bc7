"""Synthetic data substrate: domains, corpora, tokenization, datasets."""

from repro.utils.lazy import lazy_exports

#: Public name -> the module defining it, imported on first use.
_EXPORTS = {
    "ALL_DOMAINS": "repro.data.domains",
    "DOMAIN_NAMES": "repro.data.domains",
    "DomainSpec": "repro.data.domains",
    "domain_index": "repro.data.domains",
    "get_domain": "repro.data.domains",
    "Vocabulary": "repro.data.vocab",
    "build_default_vocabulary": "repro.data.vocab",
    "CorpusGenerator": "repro.data.corpus",
    "Document": "repro.data.corpus",
    "Tokenizer": "repro.data.tokenizer",
    "TextDataset": "repro.data.datasets",
    "make_domain_dataset": "repro.data.datasets",
    "make_lm_sequences": "repro.data.datasets",
    "DatasetDerivation": "repro.data.derivation",
    "augment_with_noise": "repro.data.derivation",
    "filter_by_domain": "repro.data.derivation",
    "merge_datasets": "repro.data.derivation",
    "sample_dataset": "repro.data.derivation",
    "DatasetRegistry": "repro.data.registry",
    "ProbeSet": "repro.data.probes",
    "make_feature_probes": "repro.data.probes",
    "make_lm_prompts": "repro.data.probes",
    "make_text_probes": "repro.data.probes",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

"""Probe sets: fixed inputs used to observe model behavior.

Behavioral (extrinsic) model embeddings are a model's outputs on a
*shared, fixed* probe set — the "model as query" machinery of Lu et al.
that the paper proposes extending to all lake models.  Probes must be
identical across the lake, so they are derived deterministically from a
probe-set seed only.

Generating the text probes draws a seeded corpus through
``numpy.random``, which nothing else on a warm server open uses; so a
lake keeps them in its cache directory as ``probes.npz``
(:func:`cached_text_probes`), and a warm open reads them back.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.data.corpus import CorpusGenerator
from repro.data.domains import DOMAIN_NAMES
from repro.data.tokenizer import Tokenizer
from repro.data.vocab import build_default_vocabulary
from repro.obs.logging import get_logger
from repro.reliability.atomic import atomic_write_npz, read_npz
from repro.utils.rng import derive_rng

_log = get_logger("data.probes")

#: The text probe set's file name inside a cache directory.
PROBES_FILE = "probes.npz"
#: The default text probe set's arguments: the set every lake embeds.
_PROBES_PER_DOMAIN = 4
_SEQ_LEN = 24
_SEED = 1234
#: The probe file's key: bump it whenever ``make_text_probes()``
#: returns another set (a default, corpus, vocabulary or tokenizer
#: change), and every older file reads as a miss.  A test pins the
#: default set's digest, so such a change fails until this moves too.
_PROBE_VERSION = 1
#: The members of a probe file, in the order they are written.
_MEMBERS = ["key", "tokens", "domains"]


@dataclass(frozen=True)
class ProbeSet:
    """A fixed batch of probe inputs.

    ``tokens`` is ``(n_probes, seq_len)``; ``domains`` records which
    domain each probe sentence was drawn from (balanced coverage), which
    lets behavioral embeddings expose per-domain competence.
    """

    tokens: np.ndarray
    domains: tuple
    seed: int

    @property
    def num_probes(self) -> int:
        return len(self.tokens)

    @property
    def seq_len(self) -> int:
        return self.tokens.shape[1]


def make_text_probes(
    probes_per_domain: int = _PROBES_PER_DOMAIN,
    seq_len: int = _SEQ_LEN,
    seed: int = _SEED,
    domain_names: Optional[Sequence[str]] = None,
    tokenizer: Optional[Tokenizer] = None,
) -> ProbeSet:
    """Balanced text probes covering every (or the given) domain."""
    if probes_per_domain <= 0:
        raise ConfigError(f"probes_per_domain must be positive, got {probes_per_domain}")
    names = tuple(domain_names or DOMAIN_NAMES)
    tokenizer = tokenizer or Tokenizer(build_default_vocabulary())
    generator = CorpusGenerator(seed=seed, mixture_noise=0.0)
    documents = []
    for name in names:
        documents.extend(generator.generate_corpus(name, probes_per_domain, sentences_per_doc=3))
    tokens = tokenizer.encode_documents(documents, max_length=seq_len)
    return ProbeSet(
        tokens=tokens,
        domains=tuple(doc.domain for doc in documents),
        seed=seed,
    )


def cached_text_probes(cache_dir: str) -> ProbeSet:
    """``make_text_probes()``, kept in ``<cache_dir>/probes.npz``.

    The file holds the probes' ``tokens`` and ``domains`` under a sha256
    of :data:`_PROBE_VERSION`.  A missing, foreign, stale or unreadable
    file, or one whose arrays are not what the generator returns, is
    regenerated and overwritten atomically; if that write fails (a
    read-only lake, say) the generated probes are returned all the same.
    """
    key = hashlib.sha256(f"text probes v{_PROBE_VERSION}\n".encode()).hexdigest()
    path = os.path.join(cache_dir, PROBES_FILE)
    table = read_npz(path, _MEMBERS)
    if table is not None and table["key"].tolist() == key:
        tokens, domains = table["tokens"], table["domains"]
        rows = _PROBES_PER_DOMAIN * len(DOMAIN_NAMES)
        if (tokens.dtype == np.int64 and tokens.shape == (rows, _SEQ_LEN)
                and domains.dtype.kind == "U" and domains.shape == (rows,)):
            return ProbeSet(tokens=tokens, domains=tuple(domains.tolist()),
                            seed=_SEED)
    probes = make_text_probes()
    try:
        atomic_write_npz(path, {
            "key": np.array(key),
            "tokens": probes.tokens,
            "domains": np.array(probes.domains, dtype=str),
        })
    except OSError as exc:
        _log.warning("probes.save_failed", path=path, error=str(exc))
    return probes


def make_feature_probes(
    num_probes: int, num_features: int, seed: int = 1234
) -> np.ndarray:
    """Gaussian feature-vector probes for MLP-classifier behavior."""
    if num_probes <= 0 or num_features <= 0:
        raise ConfigError("num_probes and num_features must be positive")
    rng = derive_rng(seed, f"feature_probes:{num_probes}x{num_features}")
    return rng.normal(size=(num_probes, num_features))


def make_lm_prompts(
    prompts_per_domain: int = 2,
    prompt_len: int = 6,
    seed: int = 1234,
    domain_names: Optional[Sequence[str]] = None,
    tokenizer: Optional[Tokenizer] = None,
) -> ProbeSet:
    """Short prompts used to observe a language model's continuations."""
    names = tuple(domain_names or DOMAIN_NAMES)
    tokenizer = tokenizer or Tokenizer(build_default_vocabulary())
    generator = CorpusGenerator(seed=seed, mixture_noise=0.0)
    rows: List[List[int]] = []
    domains: List[str] = []
    for name in names:
        for doc in generator.generate_corpus(name, prompts_per_domain, sentences_per_doc=1):
            ids = [tokenizer.vocabulary.bos_id] + tokenizer.encode(doc.tokens)
            rows.append(ids[:prompt_len])
            domains.append(name)
    tokens = tokenizer.pad_batch(rows, max_length=prompt_len)
    return ProbeSet(tokens=tokens, domains=tuple(domains), seed=seed)

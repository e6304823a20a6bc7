"""Synthetic lakes for lakebench: N text classifiers with distinct behavior.

Every model is the same small ``text_classifier`` (dim 16, hidden 16,
one class per domain) with a seeded weight perturbation.  Each model
also gets 1-3 *specialty* domains: its output bias is raised on those
classes, so its behavioral profile (probability of the true domain on
each probe) peaks on the probes of its specialties, and its card
(description, intended use, training domains, tags) is written from the
same domains' content words.  The specialties are the ground truth that
``precision_at_10`` scores rankings against.

Lakes are built once per ``(models, seed)`` and *code digest* and cached
under the work directory; building saves the lake sharded, then primes
the embedding cache with one :meth:`LakeSnapshot.open`.  The digest
covers this module and every source file of the ``repro`` package, so a
lake and its cache are always written by the code that serves them.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

import repro
from repro.data.domains import DOMAIN_NAMES, domain_index, get_domain
from repro.data.vocab import build_default_vocabulary
from repro.lake import ModelLake, save_lake
from repro.lake.card import ModelCard
from repro.nn.models import build_model
from repro.reliability.atomic import atomic_write_json
from repro.serve import LakeSnapshot

#: Domain-free words.  Each card carries each one with probability
#: :data:`GENERIC_SHARE` and every query carries two, so a query's BM25
#: postings grow with the lake (about N/2 of them) — the "model for
#: text" tail that makes keyword search the expensive channel at 10k.
GENERIC_WORDS = ("model", "text", "classifier", "for")
GENERIC_SHARE = 0.25

#: Logit bonus on a model's specialty classes.
SPECIALTY_BIAS = 2.5

#: Std of the per-model weight perturbation.
WEIGHT_NOISE = 0.05

INFO_FILE = "lakebench.json"


def model_spec() -> Dict:
    return {
        "family": "text_classifier",
        "vocab_size": len(build_default_vocabulary()),
        "num_classes": len(DOMAIN_NAMES),
        "dim": 16,
        "hidden": [16],
    }


def _specialties(rng: np.random.Generator) -> Tuple[str, ...]:
    count = int(rng.integers(1, 4))
    picked = rng.choice(len(DOMAIN_NAMES), size=count, replace=False)
    return tuple(DOMAIN_NAMES[i] for i in sorted(picked))


def _card(name: str, domains: Sequence[str], rng: np.random.Generator) -> ModelCard:
    described: List[str] = []
    uses: List[str] = []
    tags: List[str] = ["lakebench"]
    for domain in domains:
        words = rng.choice(get_domain(domain).content_words(), size=6, replace=False)
        described.extend(words[:3])
        uses.extend(words[3:5])
        tags.append(str(words[5]))
    generic = [word for word in GENERIC_WORDS if rng.random() < GENERIC_SHARE]
    return ModelCard(
        model_name=name,
        description=f"A {' '.join(generic)} tuned on {' '.join(described)} documents.",
        intended_use=f"Tagging {' '.join(uses)} documents.",
        training_domains=list(domains),
        tags=tags,
    )


def build_lake(num_models: int, seed: int = 0) -> ModelLake:
    """An in-memory lake of ``num_models`` specialised text classifiers.

    Deterministic in ``(num_models, seed)``: same weights, cards, ids and
    therefore the same manifest digest once saved.
    """
    rng = np.random.default_rng(seed)
    template = build_model(model_spec(), seed=seed)
    base = template.state_dict()
    bias_key = sorted(key for key in base if key.endswith(".bias"))[-1]
    lake = ModelLake()
    for i in range(num_models):
        domains = _specialties(rng)
        state = {
            key: value + rng.normal(scale=WEIGHT_NOISE, size=value.shape)
            for key, value in base.items()
        }
        for domain in domains:
            state[bias_key][domain_index(domain)] += SPECIALTY_BIAS
        template.load_state_dict(state)
        name = f"lb-{i:05d}"
        lake.add_model(template, name=name, card=_card(name, domains, rng))
    return lake


@dataclass(frozen=True)
class LakeInfo:
    """What the benchmark knows about a prepared lake directory."""

    directory: str
    #: model id -> specialty domains, in lake order.
    domains: Dict[str, FrozenSet[str]]

    @property
    def model_ids(self) -> List[str]:
        return list(self.domains)


def load_info(directory: str) -> LakeInfo:
    with open(os.path.join(directory, "manifest.json")) as handle:
        manifest = json.load(handle)
    records = sorted(manifest["records"], key=lambda r: r["created_at"])
    return LakeInfo(
        directory=directory,
        domains={
            r["model_id"]: frozenset(r["card"]["training_domains"])
            for r in records
        },
    )


def code_digest() -> str:
    """Digest of the code that writes a lake and its embedding cache."""
    package = os.path.dirname(os.path.abspath(repro.__file__))
    sources = sorted(glob.glob(os.path.join(package, "**", "*.py"), recursive=True))
    digest = hashlib.sha256()
    for path in [os.path.abspath(__file__)] + sources:
        digest.update(os.path.relpath(path, package).encode())
        with open(path, "rb") as handle:
            digest.update(hashlib.sha256(handle.read()).digest())
    return digest.hexdigest()[:16]


def prepare_lake(work_dir: str, num_models: int, seed: int = 0) -> LakeInfo:
    """The cached lake for ``(num_models, seed)`` and the current code,
    building it if absent.

    Lakes of the same size and seed built by other code are removed.
    The build lands in a temporary sibling and is renamed into place
    only once the embedding cache is primed, so an interrupted build is
    redone rather than half-used.
    """
    stem = os.path.join(work_dir, f"lake-{num_models}-s{seed}")
    directory = f"{stem}-{code_digest()}"
    if os.path.exists(os.path.join(directory, INFO_FILE)):
        return load_info(directory)
    for stale in glob.glob(f"{stem}-*"):
        shutil.rmtree(stale)
    staging = directory + ".building"
    start = time.perf_counter()
    save_lake(build_lake(num_models, seed), staging, sharded=True)
    build_s = time.perf_counter() - start
    LakeSnapshot.open(staging).close()
    atomic_write_json(os.path.join(staging, INFO_FILE), {
        "models": num_models, "seed": seed, "build_s": build_s,
    })
    os.rename(staging, directory)
    return load_info(directory)


def time_cold_open(directory: str, scratch: str) -> float:
    """Seconds :meth:`LakeSnapshot.open` takes on ``directory`` with an
    empty embedding cache.

    Opens a hard-linked copy of the lake without its ``cache/`` at
    ``scratch`` (the cache is written there, as on a fresh lake), then
    removes the copy.
    """
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(directory, scratch, copy_function=os.link,
                    ignore=shutil.ignore_patterns("cache"))
    try:
        start = time.perf_counter()
        LakeSnapshot.open(scratch).close()
        return time.perf_counter() - start
    finally:
        shutil.rmtree(scratch)

"""Tests for probe sets."""

import os

import numpy as np
import pytest

from repro.data import probes as probes_module
from repro.data.probes import (
    PROBES_FILE,
    cached_text_probes,
    make_feature_probes,
    make_lm_prompts,
    make_text_probes,
)
from repro.errors import ConfigError
from repro.reliability.atomic import atomic_write_npz
from repro.utils.hashing import array_digest


class TestTextProbes:
    def test_balanced_coverage(self, tokenizer):
        probes = make_text_probes(probes_per_domain=2, tokenizer=tokenizer)
        from repro.data.domains import DOMAIN_NAMES

        for domain in DOMAIN_NAMES:
            assert probes.domains.count(domain) == 2

    def test_deterministic(self, tokenizer):
        a = make_text_probes(probes_per_domain=2, seed=5, tokenizer=tokenizer)
        b = make_text_probes(probes_per_domain=2, seed=5, tokenizer=tokenizer)
        assert np.array_equal(a.tokens, b.tokens)

    def test_domain_subset(self, tokenizer):
        probes = make_text_probes(
            probes_per_domain=3, domain_names=["legal", "news"], tokenizer=tokenizer
        )
        assert set(probes.domains) == {"legal", "news"}

    def test_invalid_count(self, tokenizer):
        with pytest.raises(ConfigError):
            make_text_probes(probes_per_domain=0, tokenizer=tokenizer)


def test_default_probe_set_is_pinned():
    # Every lake's behavioral cache file is named after this digest
    # (``embeddings-behavioral-35e764c883be.npz``), and probes.npz is
    # keyed on _PROBE_VERSION, not on the generator's output: a change
    # to the default set must move both, and this pin says so.
    assert array_digest(make_text_probes().tokens, length=12) == "35e764c883be"
    assert probes_module._PROBE_VERSION == 1


class _Events:
    def __init__(self):
        self.warnings = []

    def warning(self, event, **fields):
        self.warnings.append(event)

    def __getattr__(self, name):
        return lambda *args, **kwargs: None


class TestCachedTextProbes:
    """``cached_text_probes``: read ``probes.npz`` when its key matches,
    else generate and rewrite it."""

    @pytest.fixture()
    def generations(self, monkeypatch):
        """Counts calls of the generator behind the cache."""
        calls = []
        generate = probes_module.make_text_probes

        def spy(*args, **kwargs):
            calls.append(1)
            return generate(*args, **kwargs)

        monkeypatch.setattr(probes_module, "make_text_probes", spy)
        return calls

    @staticmethod
    def _assert_default(probes):
        want = make_text_probes()
        assert probes.tokens.dtype == want.tokens.dtype
        assert probes.tokens.shape == want.tokens.shape
        assert probes.tokens.tobytes() == want.tokens.tobytes()
        assert probes.domains == want.domains
        assert probes.seed == want.seed

    @staticmethod
    def _stored(path):
        with np.load(path) as archive:
            return {name: archive[name] for name in archive.files}

    def test_round_trip_equals_the_generator(self, tmp_path, generations):
        written = cached_text_probes(str(tmp_path))
        assert len(generations) == 1
        read = cached_text_probes(str(tmp_path))
        assert len(generations) == 1
        self._assert_default(written)
        self._assert_default(read)
        stored = self._stored(tmp_path / PROBES_FILE)
        assert list(stored) == ["key", "tokens", "domains"]
        assert stored["domains"].tolist() == list(make_text_probes().domains)

    @pytest.mark.parametrize("damage", [
        "missing", "foreign_key", "truncated", "empty", "wrong_dtype",
        "wrong_shape", "bytes_domains", "foreign_members", "old_version",
    ])
    def test_bad_file_is_regenerated_and_rewritten(self, tmp_path, generations,
                                                   monkeypatch, damage):
        path = str(tmp_path / PROBES_FILE)
        if damage != "missing":
            cached_text_probes(str(tmp_path))
        stored = self._stored(path) if damage != "missing" else None
        if damage == "foreign_key":
            stored["key"] = np.array("0" * 64)
        elif damage == "wrong_dtype":
            stored["tokens"] = stored["tokens"].astype(np.int32)
        elif damage == "wrong_shape":
            stored["tokens"] = stored["tokens"][:-1]
            stored["domains"] = stored["domains"][:-1]
        elif damage == "bytes_domains":
            stored["domains"] = stored["domains"].astype(bytes)
        elif damage == "foreign_members":
            stored["seed"] = np.array(1234)
        if stored is not None:
            atomic_write_npz(path, stored)
        if damage in ("truncated", "empty"):
            with open(path, "r+b") as handle:
                handle.truncate(os.path.getsize(path) // 2 if damage == "truncated" else 0)
        if damage == "old_version":
            monkeypatch.setattr(probes_module, "_PROBE_VERSION", 2)
        before = len(generations)
        self._assert_default(cached_text_probes(str(tmp_path)))
        assert len(generations) == before + 1
        # The rewritten file is a hit.
        self._assert_default(cached_text_probes(str(tmp_path)))
        assert len(generations) == before + 1

    def test_read_only_cache_still_serves(self, tmp_path, generations,
                                          monkeypatch):
        def refuse(path, arrays, fsync=True):
            raise OSError(30, "Read-only file system", path)

        events = _Events()
        monkeypatch.setattr(probes_module, "_log", events)
        monkeypatch.setattr(probes_module, "atomic_write_npz", refuse)
        self._assert_default(cached_text_probes(str(tmp_path)))
        self._assert_default(cached_text_probes(str(tmp_path)))
        assert len(generations) == 2
        assert events.warnings == ["probes.save_failed"] * 2
        assert not (tmp_path / PROBES_FILE).exists()

    def test_engine_reads_the_cached_set(self, lake_bundle, tmp_path,
                                         generations):
        from repro.core.search import SearchEngine

        cache_dir = str(tmp_path / "cache")
        cold = SearchEngine(lake_bundle.lake, cache_dir=cache_dir)
        assert len(generations) == 1
        warm = SearchEngine(lake_bundle.lake, cache_dir=cache_dir)
        assert len(generations) == 1
        self._assert_default(warm.probes)
        assert warm.behavioral.embedder.space_key == cold.behavioral.embedder.space_key
        for method in ("behavioral", "hybrid"):
            query = ("legal court statute", 10, method)
            assert repr(warm.search(*query)) == repr(cold.search(*query))

    def test_engine_on_an_in_memory_cache_generates(self, lake_bundle):
        # No directory to keep probes.npz in: the engine generates them.
        from repro.core.search import SearchEngine
        from repro.index.cache import EmbeddingCache

        engine = SearchEngine(lake_bundle.lake, cache=EmbeddingCache())
        self._assert_default(engine.probes)
        assert engine.search("legal court statute", 3, "behavioral")


class TestFeatureProbes:
    def test_shape(self):
        probes = make_feature_probes(10, 6, seed=1)
        assert probes.shape == (10, 6)

    def test_deterministic(self):
        assert np.array_equal(
            make_feature_probes(5, 4, seed=2), make_feature_probes(5, 4, seed=2)
        )

    def test_invalid(self):
        with pytest.raises(ConfigError):
            make_feature_probes(0, 4)


class TestLMPrompts:
    def test_starts_with_bos(self, tokenizer):
        prompts = make_lm_prompts(prompts_per_domain=1, tokenizer=tokenizer)
        assert np.all(prompts.tokens[:, 0] == tokenizer.vocabulary.bos_id)

    def test_prompt_length(self, tokenizer):
        prompts = make_lm_prompts(
            prompts_per_domain=1, prompt_len=5, tokenizer=tokenizer
        )
        assert prompts.tokens.shape[1] == 5

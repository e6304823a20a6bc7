"""Contract tests for smaller public-API surfaces not covered elsewhere."""

import numpy as np
import pytest

from repro.core.search import SearchEngine, SearchHit
from repro.core.search.parser import parse_query
from repro.errors import ConfigError


class TestSearchHit:
    def test_tuple_unpacking(self):
        model_id, score = SearchHit("m1", 0.5, "keyword")
        assert model_id == "m1"
        assert score == 0.5


class TestEngineSurface:
    def test_external_model_related_search(self, lake_bundle, probes, vocabulary):
        from repro.nn import TextClassifier

        engine = SearchEngine(lake_bundle.lake, probes)
        external = TextClassifier(len(vocabulary), 8, dim=8, seed=321)
        hits = engine.related_to_external_model(external, k=4)
        assert len(hits) == 4
        assert all(h.model_id in lake_bundle.lake for h in hits)

    def test_profile_of(self, lake_bundle, probes):
        engine = SearchEngine(lake_bundle.lake, probes)
        model_id = lake_bundle.truth.foundations[0]
        profile = engine.behavioral.index.vector_of(model_id)
        assert profile.shape == (probes.num_probes,)
        assert abs(np.linalg.norm(profile) - 1.0) < 1e-9

    def test_search_domains_direct(self, lake_bundle, probes):
        engine = SearchEngine(lake_bundle.lake, probes)
        hits = engine.search_domains(["legal", "medical"], k=4)
        assert len(hits) == 4

    def test_ambiguous_name_resolution(self, mutable_lake_bundle, probes, vocabulary):
        from repro.nn import TextClassifier

        bundle = mutable_lake_bundle
        model = TextClassifier(len(vocabulary), 8, dim=8, seed=5)
        bundle.lake.add_model(model, name="twin")
        bundle.lake.add_model(model, name="twin")
        engine = SearchEngine(bundle.lake, probes)
        with pytest.raises(ConfigError):
            engine.resolve_name("twin")


class TestParserEdgeCases:
    def test_query_with_hyphenated_names(self):
        query = parse_query("FIND MODELS WHERE SIMILAR_TO('foundation-0') LIMIT 2")
        assert query.conditions[0].args == ("foundation-0",)

    def test_empty_string_literal(self):
        query = parse_query("FIND MODELS WHERE name ~ ''")
        assert query.conditions[0].args == ("",)

    def test_tag_condition_parses(self):
        query = parse_query("FIND MODELS WHERE tag = 'classification'")
        assert query.conditions[0].field == "tag"


class TestGeneratedCardsRenderable:
    def test_all_lake_cards_render_markdown(self, lake_bundle):
        for record in lake_bundle.lake:
            markdown = record.card.to_markdown()
            assert markdown.startswith(f"# {record.name}")
            assert "## Metrics" in markdown

    def test_drafted_card_renders(self, lake_bundle, probes):
        from repro.core.docgen import CardGenerator

        generator = CardGenerator(lake_bundle.lake, probes)
        card, _ = generator.draft_card(lake_bundle.truth.foundations[0])
        markdown = card.to_markdown()
        # Behavioral/intrinsic sections are filled; training_data stays
        # undocumented by design (not observable without history).
        for section in ("Description", "Intended use", "Limitations"):
            body = markdown.split(f"## {section}")[1].split("##")[0]
            assert "*undocumented*" not in body


class TestTransformIdempotence:
    def test_quantize_is_idempotent(self, foundation_model):
        from repro.transforms import quantize_model

        once, _ = quantize_model(foundation_model, bits=6)
        twice, _ = quantize_model(once, bits=6)
        state_once = once.state_dict()
        state_twice = twice.state_dict()
        for name in state_once:
            assert np.allclose(state_once[name], state_twice[name], atol=1e-12)

    def test_prune_monotone(self, foundation_model):
        """Pruning harder never resurrects weights."""
        from repro.transforms import prune_model

        light, _ = prune_model(foundation_model, sparsity=0.3)
        heavy, _ = prune_model(foundation_model, sparsity=0.6)
        for name, arr in light.state_dict().items():
            if arr.ndim < 2:
                continue
            heavy_arr = heavy.state_dict()[name]
            light_zero = arr == 0
            heavy_zero = heavy_arr == 0
            assert not (light_zero & ~heavy_zero).any(), name

"""The lake's id column: one packed, immutable column per lake.

A lake opened from a record table answers ``get_record``, ``in``,
``model_ids()`` and the id rank from the table's id blob and stored id
order, decoding an id only when asked.  Every answer must be the one a
dict and ``sorted()`` give, for any ids a lake can hold, and every
ranked search must break ties the same way over it as over the ids of
an in-memory lake.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.search import SearchEngine
from repro.data import DOMAIN_NAMES, build_default_vocabulary
from repro.errors import ModelNotFoundError
from repro.index.cache import EmbeddingCache
from repro.index.flat import FlatIndex, id_ranks
from repro.lake import ModelCard, ModelLake, load_lake, save_lake
from repro.lake import table as record_table
from repro.lake.shard import ShardLayout
from repro.nn.models import build_model

_PARTS = ["a", "ab", "b", "\x00", "é", "\udcff", "z" * 9, "m0001", "10", "9"]

#: Ids of every shape a str order can trip on: shared prefixes, NUL,
#: non-ASCII and surrogate-escaped characters, unequal widths.
_ids = st.lists(
    st.one_of(
        st.lists(st.sampled_from(_PARTS), min_size=1, max_size=4).map("".join),
        st.text(alphabet=st.characters(codec=None), min_size=0, max_size=6),
    ),
    unique=True, max_size=40,
)


def _entry(model_id, row):
    return {
        "model_id": model_id, "name": model_id, "architecture": {},
        "weights_digest": f"d{row:023d}", "card": {"model_name": model_id},
        "created_at": row + 1,
    }


def _table_lake(directory, ids):
    path = f"{directory}/records.npz"
    record_table.write_table(
        path, "k", len(ids), ShardLayout(sharded=True), [],
        [_entry(model_id, row) for row, model_id in enumerate(ids)],
        [""] * len(ids),
    )
    lake = ModelLake()
    lake.register_table(record_table.read_table(path, "k"))
    lake._clock = len(ids)
    return lake


class TestAgainstADict:
    @given(ids=_ids, others=st.lists(st.text(max_size=6), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_lookups_and_rank_equal_a_dict_and_sorted(self, tmp_path_factory,
                                                      ids, others):
        lake = _table_lake(str(tmp_path_factory.mktemp("ids")), ids)
        column = lake.id_column()
        assert lake.model_ids() == ids
        assert list(column) == ids and len(column) == len(ids)
        assert [column[row] for row in range(len(ids))] == ids
        by_id = {model_id: row for row, model_id in enumerate(ids)}
        want_rank = np.empty(len(ids), dtype=np.int64)
        want_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
        assert column.rank.tolist() == want_rank.tolist()
        assert id_ranks(column) is column.rank
        for model_id, row in by_id.items():
            assert model_id in lake
            assert column.index(model_id) == row
            assert lake.get_record(model_id).model_id == model_id
        for other in others:
            if other not in by_id:
                assert other not in lake and column.find(other) == -1
                with pytest.raises(ModelNotFoundError):
                    lake.get_record(other)
        assert 7 not in lake

    def test_negative_and_out_of_range_rows(self, tmp_path):
        column = _table_lake(str(tmp_path), ["b", "a", "c"]).id_column()
        assert column[-1] == "c" and column[-3] == "b"
        for row in (3, -4):
            with pytest.raises(IndexError):
                column[row]
        with pytest.raises(ValueError):
            column.index("d")

    def test_empty_table(self, tmp_path):
        lake = _table_lake(str(tmp_path), [])
        assert len(lake) == 0 and lake.model_ids() == []
        assert "a" not in lake and lake.id_column().rank.tolist() == []

    def test_records_added_after_the_open_sit_beside_the_column(self, tmp_path):
        lake = _table_lake(str(tmp_path), ["b", "a"])
        spec = {"family": "mlp_classifier", "in_features": 2, "num_classes": 2,
                "hidden": [2]}
        lake.add_model(build_model(spec, seed=0), name="late", model_id="0late")
        assert len(lake) == 3 and "0late" in lake and "a" in lake
        assert lake.model_ids() == ["b", "a", "0late"]
        # The table is no longer current: the lake gives its id list,
        # which the indexes rank by sorting.
        assert lake.id_column() == ["b", "a", "0late"]
        assert id_ranks(lake.id_column()).tolist() == [2, 1, 0]


_SPEC = {
    "family": "text_classifier",
    "vocab_size": len(build_default_vocabulary()),
    "num_classes": len(DOMAIN_NAMES),
    "dim": 8,
    "hidden": [8],
}


class TestTieOrder:
    """Exact ties rank by id, the same over a table lake's column as over
    an in-memory lake's ids."""

    #: Created in an order that is not id order.
    IDS = ["b", "a\x00", "é", "a", "ab", "\udcff", "B"]

    def test_flat_and_bm25_ties_match_an_in_memory_lake(self, tmp_path, probes):
        memory = ModelLake()
        for model_id in self.IDS:
            # One model and one card for all: every score ties.
            memory.add_model(
                build_model(_SPEC, seed=0), name="same", model_id=model_id,
                card=ModelCard(model_name="same", description="legal court"),
            )
        directory = str(tmp_path / "lake")
        save_lake(memory, directory, sharded=True)
        load_lake(directory)
        warm = load_lake(directory)
        assert warm._current_table() is not None
        cache = EmbeddingCache()
        engines = [SearchEngine(lake, probes, cache=cache) for lake in (memory, warm)]
        for method in ("keyword", "behavioral", "hybrid"):
            for k in (1, 3, len(self.IDS)):
                memory_hits, warm_hits = (
                    [(hit.model_id, hit.score)
                     for hit in engine.search("legal court", k=k, method=method)]
                    for engine in engines
                )
                assert warm_hits == memory_hits
                assert [model_id for model_id, _ in warm_hits] == sorted(self.IDS)[:k]
        flat = FlatIndex()
        flat.build(self.IDS, np.ones((len(self.IDS), 3)))
        assert [hit for hit, _ in flat.query(np.ones(3), k=len(self.IDS))] == (
            sorted(self.IDS)
        )
        assert engines[1].behavioral.index._view[0] is warm.id_column()
        assert engines[1].keyword_index._ids is warm.id_column()

"""Model search: keyword, behavioral, hybrid, dataset, declarative."""

from repro.utils.lazy import lazy_exports

#: Public name -> the module defining it, imported on first use.
_EXPORTS = {
    "BM25Index": "repro.core.search.keyword",
    "build_card_index": "repro.core.search.keyword",
    "BehavioralSearcher": "repro.core.search.behavioral",
    "TaskSpec": "repro.core.search.behavioral",
    "extract_query_domains": "repro.core.search.behavioral",
    "task_profile_vector": "repro.core.search.behavioral",
    "DatasetSearchHit": "repro.core.search.dataset_search",
    "models_trained_on": "repro.core.search.dataset_search",
    "SEARCH_METHODS": "repro.core.search.engine",
    "SearchEngine": "repro.core.search.engine",
    "SearchHit": "repro.core.search.engine",
    "Condition": "repro.core.search.parser",
    "ModelQuery": "repro.core.search.parser",
    "execute_query": "repro.core.search.parser",
    "parse_query": "repro.core.search.parser",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

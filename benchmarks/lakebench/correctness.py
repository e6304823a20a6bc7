"""Correctness gate: served replies against an in-process snapshot.

``/search`` replies must equal :meth:`SearchEngine.search` on a
:class:`LakeSnapshot` of the same directory — same ids, same scores
after the JSON round trip — and ``/model`` replies must equal the
record's metadata view.  ``precision_at_10`` scores ranking quality
against the lake's generated specialties.
"""

from __future__ import annotations

import json
from typing import Dict, FrozenSet, List, Optional

from benchmarks.lakebench.traffic import Request


def _jsonable(payload: Dict) -> Dict:
    """What ``payload`` reads as after the server's ``json.dumps``."""
    return json.loads(json.dumps(payload, default=str))


def expected_reply(snapshot, request: Request) -> Dict:
    """The reply ``request`` must get, computed in-process."""
    if request.key[0] == "model":
        record = snapshot.lake.get_record(request.key[1])
        return _jsonable({
            "model_id": record.model_id,
            "name": record.name,
            "family": record.family,
            "weights_digest": record.weights_digest,
            "created_at": record.created_at,
            "tags": list(record.tags),
            "eval_metrics": dict(record.eval_metrics),
            "history_public": record.history_public,
            "weights_public": record.weights_public,
            "card_completeness": record.card.completeness(),
        })
    _, text, k, method = request.key
    hits = snapshot.engine.search(text, k=k, method=method)
    return _jsonable({
        "query": text,
        "k": k,
        "method": method,
        "results": [{"model_id": h.model_id, "score": h.score} for h in hits],
    })


def mismatch(status: int, body: bytes, expected: Dict) -> Optional[str]:
    """Why a reply is wrong, or ``None`` when it is exactly right."""
    if status != 200:
        return f"status {status}"
    try:
        served = json.loads(body)
    except ValueError:
        return "reply is not JSON"
    if served == expected:
        return None
    served_ids = [r.get("model_id") for r in served.get("results", [])]
    expected_ids = [r["model_id"] for r in expected.get("results", [])]
    if served_ids != expected_ids:
        return f"ids {served_ids} != {expected_ids}"
    return f"payload {served} != {expected}"


def precision_at_10(
    ids: List[str], intended: FrozenSet[str], domains: Dict[str, FrozenSet[str]]
) -> float:
    """Share of the top ten that specialise in every intended domain."""
    return sum(1 for i in ids[:10] if intended <= domains[i]) / 10.0

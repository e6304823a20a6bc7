"""The parity check accepts exact replies and rejects tampered ones."""

import json
import math

from repro.serve import LakeSnapshot

from benchmarks.lakebench.correctness import expected_reply, mismatch
from benchmarks.lakebench.traffic import Request, distinct_queries


def test_tampered_reply_fails_parity(small_lake):
    query = next(distinct_queries(0))
    requests = [
        Request(("search", query.text, 10, method), query.domains)
        for method in ("hybrid", "behavioral")
    ] + [Request(("model", small_lake.model_ids[0]))]
    with LakeSnapshot.open(small_lake.directory) as snapshot:
        for request in requests:
            expected = expected_reply(snapshot, request)
            body = json.dumps(expected).encode()
            assert mismatch(200, body, expected) is None
            assert mismatch(500, body, expected) is not None
            tampered = json.loads(body)
            if "results" in tampered:
                top = tampered["results"][0]
                top["score"] = math.nextafter(top["score"], math.inf)
            else:
                tampered["name"] += "-x"
            assert mismatch(200, json.dumps(tampered).encode(), expected) is not None
            if "results" in tampered:
                swapped = json.loads(body)
                results = swapped["results"]
                results[0], results[1] = results[1], results[0]
                assert "ids" in mismatch(200, json.dumps(swapped).encode(), expected)

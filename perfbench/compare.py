"""Comparison of outputs with references, shared by the runner and the worker."""

from __future__ import annotations

import json
import math


def normalize(obj):
    """What the object becomes after a JSON round trip."""
    return json.loads(json.dumps(obj))


def same(a, b, rel: float = 1e-9) -> bool:
    """Equal structure; floats equal to `rel` relative (absolute below 1)."""
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None or isinstance(a, str):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= rel * max(1.0, abs(a), abs(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k], rel) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y, rel) for x, y in zip(a, b))
    return False

"""Report records and canonical JSON serialization.

Reports must be byte-reproducible across runs with the same seed, so the
serializer sorts keys, renders fractions as "num/den" strings, and rounds
floats to 12 significant digits before emitting them.

A result object serializes by one rule, tried in this order: its
``to_json()`` if it defines one (only for a result that renames, omits or
derives a field), else its ``elements`` as a list (a ``GroundSet``), else,
for a dataclass, its fields by name.  Anything else falls back to ``repr``.
``stable_dumps`` applies the rule once, so callers pass it raw objects;
``dumps_canonical`` writes data that ``canonical`` has already produced,
so a report canonicalized once is never walked again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction
from operator import itemgetter

SCHEMA_VERSION = 1


# Exact types that are already JSON-stable primitives.  A subclass of one
# (none occurs in a report) falls through to the rules below.
_PLAIN = frozenset({str, int, bool, type(None)})


def canonical(obj):
    """Recursively convert a report object into JSON-stable primitives."""
    if type(obj) in _PLAIN:
        return obj
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            return repr(obj)
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        # Stable sort on the key text; plain values are kept without a call.
        items = sorted(((str(k), v) for k, v in obj.items()), key=itemgetter(0))
        return {k: v if type(v) in _PLAIN else canonical(v) for k, v in items}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = list(obj)
        if isinstance(obj, (set, frozenset)):
            items = sorted(items, key=repr)
        return [v if type(v) in _PLAIN else canonical(v) for v in items]
    if hasattr(obj, "to_json"):
        return canonical(obj.to_json())
    if hasattr(obj, "elements"):
        return canonical(list(obj.elements))
    if is_dataclass(obj) and not isinstance(obj, type):
        return canonical({f.name: getattr(obj, f.name) for f in fields(obj)})
    return repr(obj)


def dumps_canonical(data) -> str:
    """Compact JSON, keys sorted, of the output of ``canonical``."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def stable_dumps(obj) -> str:
    return dumps_canonical(canonical(obj))


@dataclass
class ClaimRecord:
    """One evaluated claim on one instance."""

    claim: str
    klass: str  # "hard" or "fitted"
    instance: dict
    measured: dict = field(default_factory=dict)
    fitted_constant: float | None = None
    violated: bool = False
    note: str = ""

    def to_json(self) -> dict:
        """The record's canonical JSON data; ``run_suite`` stores it as is."""
        return {
            "claim": self.claim,
            "class": self.klass,
            "instance": canonical(self.instance),
            "measured": canonical(self.measured),
            "fitted_constant": canonical(self.fitted_constant),
            "violated": self.violated,
            "note": self.note,
        }


@dataclass
class ExperimentReport:
    """A named experiment with parameters, measurements, and sub-records."""

    name: str
    instance: dict
    params: dict = field(default_factory=dict)
    measured: dict = field(default_factory=dict)
    records: list = field(default_factory=list)

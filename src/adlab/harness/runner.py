"""Suite runner: evaluate registered claims over instance lists.

A suite is a list of claims crossed with a list of instances.  The run
produces one JSON-friendly report whose content is deterministic for a
fixed package version: records appear in (instance, claim) order, every
number is either exact or canonically rounded, and wall-clock timing is
isolated under the single top-level "timing" key so callers can strip it
when comparing runs.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Sequence, Union

from ..errors import PreconditionError
from ..groundset import GroundSet
from ..records import SCHEMA_VERSION, ClaimRecord, canonical, dumps_canonical
from .claims import REGISTRY, evaluate_claim, fit_constant, get_claim
from .generators import InstanceSpec, generate, spec

Instance = Union[InstanceSpec, GroundSet, tuple]

# The curated default suite: small enough to finish in seconds, broad
# enough to touch every ambient kind and every claim family.
CORE_INSTANCES: tuple[InstanceSpec, ...] = (
    spec("interval", n=4),
    spec("interval", n=8),
    spec("interval", n=12),
    spec("ap", start=5, step=7, length=9),
    spec("gp", base=2, length=10),
    spec("gp", base=3, length=8),
    spec("ap_union", aps=((1, 1, 6), (100, 9, 6))),
    spec("ap_sumset", aps=((0, 1, 4), (0, 30, 4))),
    spec("cube", gens=(1, 10, 100)),
    spec("es_product", s=2, h=2),
    spec("es_product", s=3, h=2),
    spec("subgroup", p=13, t=4),
    spec("subgroup", p=31, t=5),
    spec("primes", count=12),
    spec("random_sample", n_max=1000, size=14, seed=3),
)

CORE_BUDGET = 500_000


def _normalize(instance: Instance) -> tuple[dict, GroundSet]:
    if isinstance(instance, InstanceSpec):
        return instance.to_json(), generate(instance)
    if isinstance(instance, GroundSet):
        desc = instance.describe()
        return (
            {"generator": "literal", "params": {}, "seed": 0, "label": desc},
            instance,
        )
    if isinstance(instance, tuple) and len(instance) == 2:
        label, ground = instance
        if isinstance(ground, GroundSet):
            return (
                {"generator": "literal", "params": {}, "seed": 0, "label": str(label)},
                ground,
            )
    raise PreconditionError(f"cannot interpret instance {instance!r}")


def run_suite(
    claim_ids: Optional[Sequence[str]] = None,
    instances: Iterable[Instance] = (),
    budget: Optional[int] = None,
    name: str = "suite",
) -> dict:
    """Evaluate claims over instances and return the full report.

    The report is canonical JSON data (see ``records.canonical``), so that
    ``report_to_json`` only writes it.  An unknown claim id raises before
    any work happens.  An empty instance list legitimately yields an empty
    report with zero violations.
    """
    ids = list(claim_ids) if claim_ids is not None else list(REGISTRY)
    for cid in ids:
        get_claim(cid)
    started = time.perf_counter()
    records: list[ClaimRecord] = []
    violations: list[dict] = []
    skipped = 0
    instance_json: list[dict] = []
    for instance in instances:
        inst, ground = _normalize(instance)
        instance_json.append(inst)
        for cid in ids:
            for rec in evaluate_claim(cid, ground, inst, budget=budget):
                records.append(rec)
                if rec.note.startswith("skipped:"):
                    skipped += 1
                if rec.violated and rec.klass == "hard":
                    violations.append(
                        {"claim": rec.claim, "instance": inst.get("label", "?")}
                    )
    fits = {}
    for cid in ids:
        if REGISTRY[cid].klass != "fitted":
            continue
        pool = [r for r in records if r.claim == cid]
        if pool:
            fits[cid] = fit_constant(cid, pool)
    elapsed = time.perf_counter() - started
    report = canonical({
        "schema": SCHEMA_VERSION,
        "name": name,
        "budget": budget,
        "claims": ids,
        "instances": instance_json,
        "fits": fits,
        "summary": {
            "claims": len(ids),
            "instances": len(instance_json),
            "records": len(records),
            "skipped": skipped,
            "hard_violations": len(violations),
        },
        "violations": violations,
        "timing": {"total_s": elapsed},
    })
    # A record's to_json is canonical already; walking it again repeats it.
    report["records"] = [r.to_json() for r in records]
    return report


def run_core_suite(budget: Optional[int] = None) -> dict:
    return run_suite(
        None, CORE_INSTANCES, budget=CORE_BUDGET if budget is None else budget, name="core"
    )


def report_to_json(report: dict, drop_timing: bool = False) -> str:
    """JSON text of a ``run_suite`` report, which is already canonical."""
    payload = {k: v for k, v in report.items() if not (drop_timing and k == "timing")}
    return dumps_canonical(payload)

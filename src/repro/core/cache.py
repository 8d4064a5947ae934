"""Plan caching for the repeated-use scenario.

cuTT exposes plan handles the caller stores; TTC bakes plans into
generated code.  For a library-level ergonomic equivalent,
:func:`cached_plan` keeps a bounded LRU of
:class:`~repro.core.plan.TransposePlan` so hot call sites pay the
planning cost once per process.

Every plan cache and store in the repository is keyed by one string,
:func:`content_key`: dims, perm, element width, device name and a
*content fingerprint* of every :class:`DeviceSpec` field, so two specs
that share a name but differ in geometry (a common ablation pattern via
``with_overrides``) never alias.  The same string keys the persistent
:class:`~repro.runtime.store.PlanStore` and routes requests on the
serving front end's hash ring.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from functools import lru_cache
from typing import Optional, Sequence

from repro.core.lru import BoundedLRU
from repro.core.plan import Predictor, TransposePlan, make_plan
from repro.gpusim.spec import KEPLER_K40C, DeviceSpec

#: Resident plans of :func:`cached_plan`'s cache and of each
#: :class:`~repro.runtime.service.TransposeService`'s.
DEFAULT_CAPACITY = 256


@lru_cache(maxsize=128)
def spec_fingerprint(spec: DeviceSpec) -> str:
    """Short content hash over *all* fields of a :class:`DeviceSpec`.

    Cached per spec instance (specs are frozen dataclasses); the digest
    covers geometry and calibration constants alike, so any override
    produces a distinct fingerprint even under an unchanged name.
    """
    payload = json.dumps(asdict(spec), sort_keys=True, default=str)
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]


def content_key(
    dims: Sequence[int],
    perm: Sequence[int],
    elem_bytes: int,
    spec: DeviceSpec,
) -> str:
    """The stable string key of one problem on one device.

    Deterministic across processes: it keys the plan caches and the
    entries of ``plans.json``.  Changing the format orphans every
    stored plan.
    """
    return "|".join(
        (
            "x".join(str(d) for d in dims),
            ",".join(str(p) for p in perm),
            str(elem_bytes),
            spec.name,
            spec_fingerprint(spec),
        )
    )


_PLANS = BoundedLRU(DEFAULT_CAPACITY)


def cached_plan(
    dims: Sequence[int],
    perm: Sequence[int],
    elem_bytes: int = 8,
    spec: DeviceSpec = KEPLER_K40C,
    predictor: Optional[Predictor] = None,
) -> TransposePlan:
    """The process-wide cached plan of a problem, planned on first use."""
    return _PLANS.get_or_build(
        content_key(dims, perm, elem_bytes, spec),
        lambda: make_plan(dims, perm, elem_bytes, spec, predictor),
    )[0]

"""The telemetry-driven model feedback loop.

The paper's Table II regression is fitted **offline** against the
simulator and never sees a serving measurement, so every component that
steers by it — plan search above all —
inherits its blind spots forever (ROADMAP item 3).  The serving stack
already produces the missing signal: every executed plan has a measured
host wall time and a feature vector.  This module closes the loop:

1. **Sampling** — :func:`record_execution_sample` offers each finished
   execution's ``(features, wall_time)`` to a bounded per-schema
   reservoir in the :class:`~repro.runtime.metrics.MetricsRegistry`
   (``model_samples.<schema>``; the log2 histograms are far too coarse
   to regress against).  Feature extraction runs only for admitted
   offers, so the hot path pays a counter bump for rejected ones.
2. **Retraining** — :meth:`FeedbackLoop.retrain` converts the
   reservoirs into per-schema training sets and fits a
   :class:`~repro.model.gp.GPModel` (RBF + noise; principled
   uncertainty on few points) per schema, producing a **candidate**
   model version.
3. **Shadow planning** — a deterministic sample of traffic
   (``shadow_fraction``) is predicted under every tracked version; the
   per-version predicted-vs-measured relative error accumulates per
   schema.  The candidate **promotes** only when both versions have
   enough shadow samples and the candidate's mean error beats the
   incumbent's — predictions never steer live planning until they have
   measured better on live traffic.
4. **Persistence** — the active version, candidate, fitted models, and
   shadow scoreboard persist as ``models.json`` next to the plan store
   (atomic, corruption-tolerant), so a restarted process resumes with
   the promoted model, not the offline coefficients.

The offline predictor targets *simulated GPU* time while the loop
trains on *measured wall* time; the shadow scoreboard is therefore also
the honest account of how far apart those worlds are per schema (the
``repro stats`` model table).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from threading import Lock
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.core.taxonomy import Schema
from repro.errors import ModelError
from repro.gpusim.cost import CostModel
from repro.gpusim.spec import DeviceSpec
from repro.model.features import FEATURE_NAMES, feature_vector
from repro.model.gp import GPModel
from repro.model.pretrained import SchemaPredictor, pretrained_predictor
from repro.model.regression import FittedModel

#: Reservoir-name prefix of the per-schema training samples.
SAMPLE_PREFIX = "model_samples."

#: Version string of the never-retrained shipped/analytic predictor.
OFFLINE_VERSION = "offline"

#: Schema version of the persisted ``models.json``.
FEEDBACK_FORMAT_VERSION = 1

#: Fraction of observed executions that are shadow-predicted under
#: every tracked model version (deterministic every-Nth sampling).
DEFAULT_SHADOW_FRACTION = 0.25

#: Shadow samples each version needs before promotion is considered.
DEFAULT_MIN_SHADOW_SAMPLES = 16

#: Training points a schema needs before it gets a fitted model.
DEFAULT_MIN_TRAIN_POINTS = 8


def sample_name(schema: Schema) -> str:
    """The metrics-reservoir name carrying one schema's samples."""
    return SAMPLE_PREFIX + schema.value


def record_execution_sample(metrics, kernel, wall_s: float) -> bool:
    """Offer one finished execution to its schema's sample reservoir.

    Returns True when the reservoir admitted the sample.  Schemas
    without a registered feature set (naive) and degenerate times are
    skipped — the feature callable runs only on admission.
    """
    schema = getattr(kernel, "schema", None)
    if schema not in FEATURE_NAMES or wall_s <= 0:
        return False
    return metrics.observe_sample(
        sample_name(schema),
        float(wall_s),
        meta=lambda: {"features": feature_vector(kernel).tolist()},
    )


def collect_training_data(
    metrics,
) -> Dict[Schema, Tuple[np.ndarray, np.ndarray]]:
    """Per-schema ``(X, y)`` training sets from the sample reservoirs.

    Samples whose metadata is missing or has the wrong feature arity
    (e.g. written under an older feature registry) are dropped, not
    trusted.
    """
    out: Dict[Schema, Tuple[np.ndarray, np.ndarray]] = {}
    for schema, names in FEATURE_NAMES.items():
        res = metrics.reservoir(sample_name(schema))
        if res is None:
            continue
        rows, times = [], []
        for value, meta in res.samples():
            feats = (meta or {}).get("features")
            if not isinstance(feats, list) or len(feats) != len(names):
                continue
            rows.append(feats)
            times.append(value)
        if rows:
            out[schema] = (
                np.asarray(rows, dtype=np.float64),
                np.asarray(times, dtype=np.float64),
            )
    return out


class FeedbackPredictor(SchemaPredictor):
    """A :class:`SchemaPredictor` that trusts retrained models first.

    The base class deliberately prefers the analytic fallback for
    :data:`~repro.model.pretrained.ANALYTIC_SCHEMAS` — correct for the
    *offline* models, which are fitted against the simulator the
    fallback already computes exactly.  Feedback models are fitted
    against **measured wall time**, which the analytic simulator does
    not predict at all, so here a fitted model wins for every schema
    that has one.
    """

    def _model_for(self, schema: Schema):
        m = self.models.get(schema)
        if m is not None:
            return m
        return super()._model_for(schema)

    def predict_with_uncertainty(self, kernel) -> Tuple[float, float]:
        """Posterior ``(mean, std)`` of one kernel's predicted time.

        GP-backed schemas report their own posterior standard deviation
        (``predict_with_std``); linear and analytic routes have no
        uncertainty surface and report 0.0, so callers widen nothing.
        The plan search uses this to keep pruning honest: a candidate
        is only discarded against ``mean + std``, never against an
        overconfident mean alone.
        """
        m = self._model_for(kernel.schema)
        with_std = getattr(m, "predict_with_std", None)
        if with_std is None:
            return float(self(kernel)), 0.0
        mean, std = with_std(feature_vector(kernel)[None, :])
        return max(float(mean[0]), self.min_time), max(float(std[0]), 0.0)


def _model_to_dict(model) -> dict:
    if isinstance(model, GPModel):
        return model.to_dict()
    return {
        "kind": "linear",
        "feature_names": list(model.feature_names),
        "coef": [float(c) for c in model.coef],
        "intercept": float(model.intercept),
    }


def _model_from_dict(payload: dict):
    kind = payload.get("kind")
    if kind == "gp":
        return GPModel.from_dict(payload)
    if kind == "linear":
        coef = np.asarray(payload["coef"], dtype=np.float64)
        if len(coef) != len(payload["feature_names"]):
            raise ModelError("coefficient/feature mismatch in feedback model")
        return FittedModel(
            feature_names=list(payload["feature_names"]),
            coef=coef,
            intercept=float(payload["intercept"]),
        )
    raise ModelError(f"unknown feedback model kind {kind!r}")


def _blank_score() -> dict:
    return {"count": 0, "err_sum": 0.0, "schemas": {}}


class FeedbackLoop:
    """Retraining, shadow scoring, and gated promotion of cost models.

    One instance per service (attach with ``TransposeService(feedback=
    True)``).  Thread-safe; all prediction math runs outside the lock.

    Parameters
    ----------
    path:
        Where the loop persists (``models.json`` next to the plan
        store; ``None`` = in-memory only).
    spec:
        Device the fallback cost model (and default base predictor)
        are built for.
    base_predictor:
        The incumbent "offline" predictor shadow-scored against every
        candidate (default: :func:`~repro.model.pretrained
        .pretrained_predictor`).
    shadow_fraction:
        Fraction of observed executions that are shadow-predicted
        (deterministic every-Nth sampling; 0 disables shadowing).
    min_shadow_samples:
        Shadow samples *each* version needs before promotion can flip.
    min_train_points:
        Reservoir points a schema needs to earn a fitted model.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        spec: Optional[DeviceSpec] = None,
        base_predictor=None,
        shadow_fraction: float = DEFAULT_SHADOW_FRACTION,
        min_shadow_samples: int = DEFAULT_MIN_SHADOW_SAMPLES,
        min_train_points: int = DEFAULT_MIN_TRAIN_POINTS,
    ) -> None:
        if not 0.0 <= shadow_fraction <= 1.0:
            raise ValueError(
                f"shadow_fraction must be in [0, 1], got {shadow_fraction}"
            )
        self.path = Path(path) if path is not None else None
        self.spec = spec
        self.base_predictor = (
            base_predictor
            if base_predictor is not None
            else pretrained_predictor(spec)
        )
        self.fallback = CostModel(spec) if spec is not None else CostModel()
        self.shadow_fraction = float(shadow_fraction)
        self._shadow_every = (
            int(round(1.0 / shadow_fraction)) if shadow_fraction > 0 else 0
        )
        self.min_shadow_samples = max(1, int(min_shadow_samples))
        self.min_train_points = max(2, int(min_train_points))
        self._lock = Lock()
        self.active_version = OFFLINE_VERSION
        self.candidate_version: Optional[str] = None
        self._next_version = 1
        #: version -> {Schema: fitted model}; only versions still in
        #: play (active + candidate) are kept.
        self._models: Dict[str, Dict[Schema, object]] = {}
        #: version -> shadow scoreboard (count / err_sum / per-schema).
        self._scores: Dict[str, dict] = {OFFLINE_VERSION: _blank_score()}
        self._observed = 0
        self.promotions = 0
        self._predictor_cache: Dict[str, object] = {}
        self._dirty = False
        if self.path is not None:
            self._load()

    # ---- predictors --------------------------------------------------
    def _predictor_for(self, version: str):
        """The prediction surface of one tracked version (cached)."""
        if version == OFFLINE_VERSION:
            return self.base_predictor
        cached = self._predictor_cache.get(version)
        if cached is None:
            cached = FeedbackPredictor(
                self._models.get(version, {}), fallback=self.fallback
            )
            self._predictor_cache[version] = cached
        return cached

    def predictor(self):
        """The currently *promoted* predictor — what planning should use."""
        with self._lock:
            version = self.active_version
        return self._predictor_for(version)

    # ---- observation / shadow scoring --------------------------------
    def observe(self, metrics, kernel, wall_s: float) -> bool:
        """Feed one finished execution into the loop.

        Always offers the sample to the training reservoir; every
        ``1/shadow_fraction``-th observation is also shadow-predicted
        under each tracked version.  Returns True when this observation
        triggered a promotion (callers refresh their planning predictor
        then).
        """
        record_execution_sample(metrics, kernel, wall_s)
        if wall_s <= 0 or self._shadow_every == 0:
            return False
        with self._lock:
            self._observed += 1
            if self._observed % self._shadow_every != 0:
                return False
            versions = [self.active_version]
            if self.candidate_version is not None:
                versions.append(self.candidate_version)
        preds = {}
        for version in versions:
            try:
                preds[version] = float(self._predictor_for(version)(kernel))
            except (ModelError, KeyError):
                continue
        if not preds:
            return False
        return self._score_shadow(preds, kernel.schema, float(wall_s))

    def _score_shadow(
        self, preds: Dict[str, float], schema: Schema, measured_s: float
    ) -> bool:
        promoted = False
        with self._lock:
            for version, predicted in preds.items():
                rel_err = abs(measured_s - predicted) / measured_s
                score = self._scores.setdefault(version, _blank_score())
                score["count"] += 1
                score["err_sum"] += rel_err
                per = score["schemas"].setdefault(
                    schema.value, {"count": 0, "err_sum": 0.0}
                )
                per["count"] += 1
                per["err_sum"] += rel_err
            self._dirty = True
            promoted = self._maybe_promote_locked()
        if promoted and self.path is not None:
            self.flush()
        return promoted

    def _maybe_promote_locked(self) -> bool:
        cand = self.candidate_version
        if cand is None:
            return False
        cs = self._scores.get(cand)
        inc = self._scores.get(self.active_version)
        if cs is None or inc is None:
            return False
        if (
            cs["count"] < self.min_shadow_samples
            or inc["count"] < self.min_shadow_samples
        ):
            return False
        if cs["err_sum"] / cs["count"] >= inc["err_sum"] / inc["count"]:
            return False
        # The candidate measured better on live traffic: flip.
        retired = self.active_version
        self.active_version = cand
        self.candidate_version = None
        if retired != OFFLINE_VERSION:
            self._models.pop(retired, None)
            self._predictor_cache.pop(retired, None)
        self.promotions += 1
        self._dirty = True
        return True

    # ---- retraining --------------------------------------------------
    def retrain(self, metrics) -> Optional[str]:
        """Fit a new candidate version from the sample reservoirs.

        One GP per schema with at least ``min_train_points`` samples;
        schemas below the floor keep their previous route.  Replaces
        any un-promoted candidate (and its shadow scoreboard — stale
        evidence must not promote a newer model).  Returns the new
        version name, or ``None`` when no schema had enough data.
        """
        data = collect_training_data(metrics)
        fitted: Dict[Schema, object] = {}
        for schema, (X, y) in data.items():
            if X.shape[0] < self.min_train_points:
                continue
            try:
                fitted[schema] = GPModel(FEATURE_NAMES[schema], X, y)
            except ModelError:
                continue
        if not fitted:
            return None
        with self._lock:
            old = self.candidate_version
            if old is not None:
                self._models.pop(old, None)
                self._scores.pop(old, None)
                self._predictor_cache.pop(old, None)
            name = f"v{self._next_version}"
            self._next_version += 1
            self._models[name] = fitted
            self._scores[name] = _blank_score()
            self.candidate_version = name
            self._dirty = True
        if self.path is not None:
            self.flush()
        return name

    # ---- introspection -----------------------------------------------
    def stats(self) -> dict:
        """The model table: versions, shadow errors, promotion state."""
        with self._lock:
            versions = {}
            for version, score in sorted(self._scores.items()):
                per_schema = {
                    name: {
                        "count": s["count"],
                        "mean_err_pct": round(
                            s["err_sum"] / s["count"] * 100.0, 2
                        ),
                    }
                    for name, s in sorted(score["schemas"].items())
                    if s["count"]
                }
                versions[version] = {
                    "shadow_count": score["count"],
                    "mean_err_pct": (
                        round(score["err_sum"] / score["count"] * 100.0, 2)
                        if score["count"]
                        else None
                    ),
                    "schemas": per_schema,
                    "fitted_schemas": sorted(
                        s.value for s in self._models.get(version, {})
                    ),
                }
            return {
                "active": self.active_version,
                "candidate": self.candidate_version,
                "shadow_fraction": self.shadow_fraction,
                "min_shadow_samples": self.min_shadow_samples,
                "observed": self._observed,
                "promotions": self.promotions,
                "versions": versions,
                "path": str(self.path) if self.path else None,
            }

    # ---- persistence -------------------------------------------------
    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return
        if (
            not isinstance(payload, dict)
            or payload.get("feedback_version") != FEEDBACK_FORMAT_VERSION
        ):
            return
        try:
            models: Dict[str, Dict[Schema, object]] = {}
            for version, per_schema in payload.get("models", {}).items():
                fitted = {}
                for name, body in per_schema.items():
                    fitted[Schema(name)] = _model_from_dict(body)
                if fitted:
                    models[version] = fitted
            scores: Dict[str, dict] = {}
            for version, score in payload.get("shadow", {}).items():
                scores[version] = {
                    "count": int(score["count"]),
                    "err_sum": float(score["err_sum"]),
                    "schemas": {
                        str(k): {
                            "count": int(v["count"]),
                            "err_sum": float(v["err_sum"]),
                        }
                        for k, v in score.get("schemas", {}).items()
                    },
                }
            active = str(payload.get("active", OFFLINE_VERSION))
            candidate = payload.get("candidate")
            next_version = int(payload.get("next_version", 1))
            promotions = int(payload.get("promotions", 0))
        except (KeyError, TypeError, ValueError, ModelError):
            # A truncated or hand-edited file must not take down
            # service start; the loop restarts from the offline model.
            return
        if active != OFFLINE_VERSION and active not in models:
            return
        if candidate is not None and candidate not in models:
            candidate = None
        self._models = models
        self._scores = scores or {OFFLINE_VERSION: _blank_score()}
        self._scores.setdefault(OFFLINE_VERSION, _blank_score())
        self.active_version = active
        self.candidate_version = candidate
        self._next_version = max(next_version, 1)
        self.promotions = promotions

    def flush(self) -> None:
        """Atomically persist the loop state (no-op without a path)."""
        if self.path is None:
            return
        with self._lock:
            payload = {
                "feedback_version": FEEDBACK_FORMAT_VERSION,
                "active": self.active_version,
                "candidate": self.candidate_version,
                "next_version": self._next_version,
                "promotions": self.promotions,
                "models": {
                    version: {
                        schema.value: _model_to_dict(m)
                        for schema, m in per_schema.items()
                    }
                    for version, per_schema in self._models.items()
                },
                "shadow": {
                    version: {
                        "count": s["count"],
                        "err_sum": s["err_sum"],
                        "schemas": s["schemas"],
                    }
                    for version, s in self._scores.items()
                },
            }
            self._dirty = False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, self.path)

    def close(self) -> None:
        if self.path is not None and self._dirty:
            self.flush()

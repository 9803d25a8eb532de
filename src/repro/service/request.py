"""Explain requests and their content-addressed keys.

An :class:`ExplainRequest` names everything an explanation depends on: the
record pair, the generation method, the perturbation budget, the generic
explainer and the seed.  :func:`request_key` folds that — together with
the serving matcher's fingerprint (:func:`repro.core.serialize.
matcher_fingerprint`) — into one stable SHA-256 key.  Equal keys mean
bit-identical explanations, so the key is simultaneously the coalescing
identity for in-flight requests and the primary key of the persistent
:class:`~repro.service.store.ExplanationStore`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.core.serialize import _pair_to_dict
from repro.data.records import RecordPair
from repro.data.schema import PairSchema
from repro.exceptions import ConfigurationError, ServiceError

#: Generation methods a request may ask for.  ``single`` / ``double``
#: force one generation mode, ``auto`` applies the paper's policy (single
#: on predicted match, double on predicted non-match), ``both`` computes
#: the two forced modes in one request.
REQUEST_METHODS = ("single", "double", "auto", "both")

#: Generic explainers the service can couple with the landmark pipeline.
REQUEST_EXPLAINERS = ("lime", "shap")


@dataclass(frozen=True)
class ExplainRequest:
    """One servable explanation request.

    ``priority`` orders the work queue (lower runs first; interactive
    callers use small values, warming jobs large ones).
    ``deadline_seconds`` is the request's latency budget, measured from
    admission: once it passes, the computation aborts between engine
    chunks with :class:`~repro.exceptions.DeadlineExceededError` instead
    of finishing work nobody will read (``None`` = no deadline).  Both
    are excluded from the request key: scheduling never changes results.
    """

    pair: RecordPair
    method: str = "both"
    samples: int = 128
    explainer: str = "lime"
    seed: int = 0
    priority: int = 10
    deadline_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.method not in REQUEST_METHODS:
            raise ConfigurationError(
                f"method must be one of {REQUEST_METHODS}, got {self.method!r}"
            )
        if self.explainer not in REQUEST_EXPLAINERS:
            raise ConfigurationError(
                f"explainer must be one of {REQUEST_EXPLAINERS}, "
                f"got {self.explainer!r}"
            )
        if self.samples < 4:
            raise ConfigurationError(
                f"samples must be >= 4, got {self.samples}"
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ConfigurationError(
                f"deadline_seconds must be > 0, got {self.deadline_seconds}"
            )

    def generations(self) -> tuple[str, ...]:
        """The generation modes this request computes, in order."""
        if self.method == "both":
            return ("single", "double")
        return (self.method,)


def request_key(matcher_fingerprint: str, request: ExplainRequest) -> str:
    """The content-addressed identity of (model, record, explainer config).

    Covers the matcher fingerprint, the full pair content (including
    ``pair_id``, which seeds the per-pair perturbation streams) and every
    result-affecting request field.  Stable across processes and sessions.
    """
    payload = {
        "matcher": matcher_fingerprint,
        "pair": _pair_to_dict(request.pair),
        "method": request.method,
        "samples": request.samples,
        "explainer": request.explainer,
        "seed": request.seed,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: Request fields a server may default (``serve``'s flags) ...
_DEFAULTABLE = ("method", "samples", "explainer", "seed")
#: ... and every field a wire payload may set.
_PAYLOAD_FIELDS = _DEFAULTABLE + ("priority", "deadline_seconds")


def request_from_payload(
    payload: dict,
    dataset=None,
    defaults: dict | None = None,
) -> ExplainRequest:
    """Build an :class:`ExplainRequest` from a wire payload (JSONL / HTTP).

    The record is named either by ``"record"`` (an index into *dataset*)
    or by an inline ``"pair"`` object (``attributes`` + ``left`` +
    ``right``, optional ``label`` / ``pair_id``).  *defaults* supplies
    server-side fallbacks for ``samples`` / ``explainer`` / ``seed`` /
    ``method``.  Malformed payloads raise
    :class:`~repro.exceptions.ServiceError`.
    """
    defaults = defaults or {}
    if not isinstance(payload, dict):
        raise ServiceError(f"request payload must be an object, got {type(payload).__name__}")
    if "record" in payload:
        if dataset is None:
            raise ServiceError(
                "request names a record index but the service has no dataset"
            )
        index = payload["record"]
        if not isinstance(index, int) or not 0 <= index < len(dataset):
            raise ServiceError(
                f"record index {index!r} out of range 0..{len(dataset) - 1}"
            )
        pair = dataset[index]
    elif "pair" in payload:
        pair = _pair_from_payload(payload["pair"], dataset)
    else:
        raise ServiceError("request needs a 'record' index or an inline 'pair'")
    # Payload, then server-side defaults; anything absent from both takes
    # ExplainRequest's own default.
    fields = {name: defaults[name] for name in _DEFAULTABLE if name in defaults}
    fields.update(
        (name, payload[name]) for name in _PAYLOAD_FIELDS if name in payload
    )
    try:
        for name in ("samples", "seed", "priority"):
            if name in fields:
                fields[name] = int(fields[name])
        if fields.get("deadline_seconds") is not None:
            fields["deadline_seconds"] = float(fields["deadline_seconds"])
        return ExplainRequest(pair=pair, **fields)
    except (ConfigurationError, TypeError, ValueError) as error:
        raise ServiceError(f"invalid request: {error}") from error


def _pair_from_payload(payload: dict, dataset=None) -> RecordPair:
    """An inline wire pair → :class:`RecordPair` (schema from the payload
    or, when omitted, from the served dataset)."""
    if not isinstance(payload, dict):
        raise ServiceError("'pair' must be an object")
    attributes = payload.get("attributes")
    if attributes is not None:
        schema = PairSchema(tuple(attributes))
    elif dataset is not None:
        schema = dataset.schema
    else:
        raise ServiceError(
            "'pair' needs an 'attributes' list (no dataset schema to borrow)"
        )
    try:
        return RecordPair(
            schema=schema,
            left=payload["left"],
            right=payload["right"],
            label=int(payload.get("label", 0)),
            pair_id=int(payload.get("pair_id", -1)),
        )
    except KeyError as error:
        raise ServiceError(f"'pair' is missing {error}") from error
    except Exception as error:
        raise ServiceError(f"invalid pair: {error}") from error

"""The serve wire vocabulary: JSON requests, responses, client helpers.

One request and one response are each a single JSON object.  Over the
unix socket they travel as JSON lines (many requests per connection);
over the localhost HTTP transport one request is the POST body and the
response the reply body.  Both transports speak the identical
vocabulary, defined here so the daemon, the clients, and the tests can
never diverge.

Requests::

    {"op": "ping"}
    {"op": "stats"}
    {"op": "shutdown"}
    {"op": "estimate", "path": "graph.etape", "kappa": 5,
     "config": {"seed": 3, "epsilon": 0.25, ...}}

``config`` admits exactly the trajectory-relevant estimator fields
(:data:`CONFIG_FIELDS`); engine and robustness knobs are daemon-side
policy (results are bit-identical across them, so a client has nothing
to gain by setting them per-request).

Responses are ``{"ok": true, ...}`` or
``{"ok": false, "error": {"type": ..., "message": ...}}`` where ``type``
is the exception class name (``StreamError``, ``ParameterError``, ...).
An estimate response carries the full solo-equivalent result - estimate,
per-round trajectory with per-run estimates, pass/sweep accounting, the
recovery ladder's ``degradations`` (one ``{site, action, attempts,
cause}`` object per step, as on a solo run's result), and
``root_rng_sha256``, a digest of the final root-RNG state that lets a
client verify bit-identity against a solo run without shipping the whole
state - plus the job's share of the tape's physical sweeps.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, Optional, Tuple

from ..core.driver import EstimatorConfig, ProgramOutcome
from ..core.params import PlanConstants
from ..errors import ParameterError, ProtocolError
from ..rng import encode_state
from .jobs import JobAccounting

#: Estimator-config fields a request may set: exactly the
#: trajectory-relevant ones the cache key hashes.
CONFIG_FIELDS = (
    "seed",
    "epsilon",
    "repetitions",
    "mode",
    "constants",
    "t_hint",
    "max_rounds",
)

OPS = ("ping", "stats", "shutdown", "estimate")


def decode_request(raw: bytes) -> Dict[str, object]:
    """Parse one request; :class:`~repro.errors.ProtocolError` if malformed."""
    try:
        request = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(request, dict):
        raise ProtocolError(f"request must be a JSON object, got {type(request).__name__}")
    op = request.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {', '.join(OPS)}")
    return request


def estimate_params(request: Dict[str, object]) -> Tuple[str, int, EstimatorConfig]:
    """Extract ``(path, kappa, config)`` from an estimate request."""
    path = request.get("path")
    if not isinstance(path, str) or not path:
        raise ProtocolError("estimate request needs a non-empty string 'path'")
    kappa = request.get("kappa")
    if not isinstance(kappa, int) or isinstance(kappa, bool):
        raise ProtocolError("estimate request needs an integer 'kappa'")
    config = request.get("config", {})
    if not isinstance(config, dict):
        raise ProtocolError("'config' must be a JSON object")
    unknown = sorted(set(config) - set(CONFIG_FIELDS))
    if unknown:
        raise ProtocolError(
            f"unknown config field(s) {', '.join(unknown)}; "
            f"requests may set: {', '.join(CONFIG_FIELDS)}"
        )
    kwargs = dict(config)
    constants = kwargs.get("constants")
    if constants is not None:
        try:
            kwargs["constants"] = PlanConstants(*constants)
        except TypeError as exc:
            raise ProtocolError(f"'constants' must be [c_r, c_ell, c_s]: {exc}") from exc
    try:
        return path, kappa, EstimatorConfig(**kwargs)
    except (TypeError, ParameterError) as exc:
        raise ProtocolError(f"invalid config: {exc}") from exc


def root_rng_digest(root_state: tuple) -> str:
    """Stable digest of a root generator's final ``getstate()``."""
    encoded = json.dumps(encode_state(root_state), separators=(",", ":"))
    return hashlib.sha256(encoded.encode("ascii")).hexdigest()


def result_document(
    outcome: ProgramOutcome,
    accounting: Optional[JobAccounting],
    *,
    cached: bool,
    fingerprint_hex: str,
    job_id: Optional[str] = None,
) -> Dict[str, object]:
    """The estimate response body (also what the result cache stores)."""
    result = outcome.result
    document: Dict[str, object] = {
        "ok": True,
        "cached": cached,
        "estimate": result.estimate,
        "rounds": [
            {
                "t_guess": r.t_guess,
                "median_estimate": r.median_estimate,
                "accepted": r.accepted,
                "runs": [run.estimate for run in r.runs],
            }
            for r in result.rounds
        ],
        "passes_total": result.passes_total,
        "sweeps_total": result.sweeps_total,
        "sweeps_wasted": result.sweeps_wasted,
        "passes_wasted": result.passes_wasted,
        "space_words_peak": result.space_words_peak,
        "degradations": [dataclasses.asdict(report) for report in result.degradations],
        "root_rng_sha256": root_rng_digest(outcome.root_state),
        "tape_fingerprint": fingerprint_hex,
    }
    if job_id is not None:
        document["job"] = job_id
    if accounting is not None:
        document["accounting"] = {
            "sweeps_physical": accounting.sweeps_physical,
            "sweeps_shared": accounting.sweeps_shared,
            "sweeps_committed": accounting.sweeps_committed,
            "sweeps_wasted": accounting.sweeps_wasted,
        }
    return document


def error_document(error: BaseException) -> Dict[str, object]:
    return {
        "ok": False,
        "error": {"type": type(error).__name__, "message": str(error)},
    }


def encode_response(document: Dict[str, object]) -> bytes:
    return json.dumps(document, separators=(",", ":")).encode("utf-8") + b"\n"


# ---------------------------------------------------------------------------
# blocking client helpers (tests, benches, scripts)


def request_unix(
    socket_path: str, request: Dict[str, object], timeout: float = 300.0
) -> Dict[str, object]:
    """Send one request over the unix socket; return the decoded response."""
    import socket

    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(socket_path)
        sock.sendall(json.dumps(request).encode("utf-8") + b"\n")
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
    return _decode_response(b"".join(chunks))


def request_http(
    port: int,
    request: Dict[str, object],
    host: str = "127.0.0.1",
    timeout: float = 300.0,
) -> Dict[str, object]:
    """POST one request to the localhost HTTP transport; return the response."""
    import http.client

    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request(
            "POST",
            "/",
            body=json.dumps(request).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        return _decode_response(connection.getresponse().read())
    finally:
        connection.close()


def _decode_response(raw: bytes) -> Dict[str, object]:
    try:
        response = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"response is not valid JSON: {raw[:200]!r}") from exc
    if not isinstance(response, dict):
        raise ProtocolError(f"response must be a JSON object, got {type(response).__name__}")
    return response

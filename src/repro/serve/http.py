"""HTTP front-end for :class:`~repro.serve.RecommendationService`.

:class:`RecommendationServer` subclasses the runstore
:class:`~repro.runstore.MetricsExporter` — same stdlib threading server,
daemon lifecycle, ephemeral-port (``port=0``) and address-in-use
handling — and adds the serving endpoints:

* ``POST /recommend``     ``{"users": [0, 7], "k": 10}`` →
  ``{"results": {"0": [...], "7": [...]}, "k": 10}``
* ``POST /interactions``  ``{"pairs": [[0, 3], [7, 1]]}`` → the
  :meth:`~repro.serve.RecommendationService.add_interactions` summary
* ``GET /metrics``        inherited Prometheus scrape (includes the
  ``serve.*`` and ``ppr.incremental_pushes`` series when telemetry is
  enabled)
* ``GET /healthz``        inherited liveness probe, extended with the
  service's :meth:`~repro.serve.RecommendationService.stats`

Malformed requests come back as ``400 {"error": ...}`` rather than a
stack trace, also when the JSON nests too deep to decode; user ids, item
ids and ``k`` must be JSON integers (a float, infinity or boolean is
refused, not truncated).  The CI serve-smoke job drives all four
endpoints.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Optional, Tuple

from ..runstore.exporter import MetricsExporter
from .service import RecommendationService

__all__ = ["RecommendationServer"]


class RecommendationServer(MetricsExporter):
    """Serve recommendations + metrics from one bound port."""

    def __init__(self, service: RecommendationService, port: int = 0,
                 host: str = "127.0.0.1", **kwargs: Any):
        super().__init__(port=port, host=host, **kwargs)
        self.service = service

    # -- endpoint routing ----------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        payload = super().healthz()
        payload.update(self.service.stats())
        return payload

    def _handle_post(self, path: str,
                     payload: bytes) -> Optional[Tuple[int, str, bytes]]:
        if path == "/recommend":
            return self._json_endpoint(payload, self._recommend)
        if path == "/interactions":
            return self._json_endpoint(payload, self._interactions)
        return super()._handle_post(path, payload)

    @staticmethod
    def _json_endpoint(payload: bytes,
                       handler: Callable[[Dict[str, Any]], Dict[str, Any]]
                       ) -> Tuple[int, str, bytes]:
        try:
            body = json.loads(payload.decode("utf-8") or "{}")
            if not isinstance(body, dict):
                raise ValueError("request body must be a JSON object")
            result = handler(body)
            status = 200
        except (ValueError, KeyError, TypeError, RecursionError) as error:
            # RecursionError: JSON nested deeper than the decoder recurses
            result = {"error": str(error)}
            status = 400
        text = json.dumps(result, sort_keys=True) + "\n"
        return status, "application/json", text.encode("utf-8")

    # -- handlers ------------------------------------------------------
    def _recommend(self, body: Dict[str, Any]) -> Dict[str, Any]:
        users = body.get("users")
        if not isinstance(users, list) or not users:
            raise ValueError("'users' must be a non-empty list of user ids")
        users = [_json_int(user, "user id") for user in users]
        k = body.get("k")
        if k is not None:
            k = _json_int(k, "'k'")
        rankings = self.service.recommend(users, k=k)
        return {
            "results": {str(user): ranking.tolist()
                        for user, ranking in zip(users, rankings)},
            "k": self.service.config.top_k if k is None else k,
        }

    def _interactions(self, body: Dict[str, Any]) -> Dict[str, Any]:
        pairs = body.get("pairs")
        if not isinstance(pairs, list) or not pairs:
            raise ValueError(
                "'pairs' must be a non-empty list of [user, item] pairs")
        cleaned = []
        for pair in pairs:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError(
                    f"each pair must be [user, item], got {pair!r}")
            cleaned.append((_json_int(pair[0], "user id"),
                            _json_int(pair[1], "item id")))
        return self.service.add_interactions(cleaned)


def _json_int(value: Any, what: str) -> int:
    """``value`` if it is a JSON integer, else ``ValueError`` (a 400)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value

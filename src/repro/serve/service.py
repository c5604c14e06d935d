"""Query evaluation behind the serve daemon, socket-free.

:class:`QueryService` owns the semantic dispatch: one method per
protocol op, each taking the validated request object and returning the
``result`` payload.  The daemon wraps this in the wire envelope; tests
drive it directly.  The service holds no sockets and no threads — the
only shared state is the process-global artifact store (activated by the
daemon before serving) and the kernel's interning caches, both of which
are already safe under the daemon's thread-per-connection model because
every query path funnels through ``lru_cache``/store reads.
"""

from __future__ import annotations

import importlib
from typing import Any

from repro import metrics
from repro.serve.protocol import PROTOCOL_VERSION, ProtocolError
from repro.store import runtime as store_runtime

__all__ = ["QueryService"]

#: Every module an op handler imports.  Handlers import on first use, so
#: ``python -m repro`` stays light; the daemon preloads them all, since
#: first requests of two ops arriving together race in the import system
#: (``ImportError: … partially initialized module``).
_OP_MODULES = (
    "repro.ef.equivalence", "repro.fc.builders", "repro.fc.parser",
    "repro.fc.semantics", "repro.fc.syntax", "repro.spanners",
)


class QueryService:
    """Answers protocol queries against the loaded reproduction stack."""

    @staticmethod
    def preload() -> None:
        """Import every op's modules now, from the calling thread."""
        for name in _OP_MODULES:
            importlib.import_module(name)

    def dispatch(self, request: dict[str, Any]) -> Any:
        """The ``result`` payload for a validated ``request``."""
        handler = getattr(self, f"op_{request['op']}")
        return handler(request)

    def op_ping(self, request: dict[str, Any]) -> dict[str, Any]:
        return {"protocol": PROTOCOL_VERSION}

    def op_stats(self, request: dict[str, Any]) -> dict[str, Any]:
        store = store_runtime.active()
        snapshot = metrics.snapshot()
        return {
            "store": store.describe() if store is not None else None,
            "counters": snapshot["store"],
            "solver": snapshot["solver"],
            "lru": snapshot["lru"],
        }

    def op_membership(self, request: dict[str, Any]) -> dict[str, Any]:
        from repro.fc.builders import paper_formula
        from repro.fc.parser import FCParseError, parse_fc
        from repro.fc.semantics import OpenFormulaError, defines_language_member

        word = request["word"]
        named = request.get("formula")
        text = request.get("text")
        if (named is None) == (text is None):
            raise ProtocolError(
                "membership: pass exactly one of 'formula' (a paper "
                "formula name) or 'text' (FC syntax)"
            )
        if named is not None:
            try:
                phi, alphabet = paper_formula(named)
            except KeyError as error:
                raise ProtocolError(f"membership: {error.args[0]}") from None
            alphabet = request.get("alphabet") or alphabet
        else:
            alphabet = (
                request.get("alphabet") or "".join(sorted(set(word))) or "a"
            )
            try:
                phi = parse_fc(text, alphabet)
            except FCParseError as error:
                raise ProtocolError(f"membership: parse error: {error}")
        try:
            member = defines_language_member(word, phi, alphabet)
        except OpenFormulaError as error:
            raise ProtocolError(
                f"membership: formula is open (free: {error.names})"
            ) from None
        return {"word": word, "alphabet": alphabet, "member": member}

    def op_equiv(self, request: dict[str, Any]) -> dict[str, Any]:
        from repro.ef.equivalence import equiv_k

        w, v, k = request["w"], request["v"], request["k"]
        if k < 0:
            raise ProtocolError("equiv: k must be ≥ 0")
        return {
            "w": w,
            "v": v,
            "k": k,
            "equivalent": equiv_k(w, v, k, request.get("alphabet")),
        }

    def op_rank(self, request: dict[str, Any]) -> dict[str, Any]:
        from repro.ef.equivalence import distinguishing_rank

        w, v = request["w"], request["v"]
        max_k = request.get("max_k", 3)
        if max_k < 0:
            raise ProtocolError("rank: max_k must be ≥ 0")
        return {
            "w": w,
            "v": v,
            "max_k": max_k,
            "rank": distinguishing_rank(w, v, max_k, request.get("alphabet")),
        }

    def op_spanner(self, request: dict[str, Any]) -> dict[str, Any]:
        from repro.spanners import extract

        document = request["document"]
        try:
            spanner = extract(request["pattern"])
        except ValueError as error:
            raise ProtocolError(f"spanner: bad pattern: {error}")
        relation = spanner.evaluate(document)
        order = sorted(relation.schema)
        rows = sorted(
            [
                {
                    var: {
                        "start": span.start,
                        "end": span.end,
                        "content": span.content(document),
                    }
                    for var, span in row.items()
                }
                for row in relation
            ],
            key=lambda row: [
                (row[var]["start"], row[var]["end"]) for var in order
            ],
        )
        return {
            "document": document,
            "schema": order,
            "class": spanner.classify(),
            "rows": rows,
        }

    def op_shutdown(self, request: dict[str, Any]) -> dict[str, Any]:
        # The daemon watches for this op and stops its loop after the
        # response is flushed; as a bare service call it's a no-op ack.
        return {"stopping": True}

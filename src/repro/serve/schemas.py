"""Request schemas for the prediction service.

Every POST endpoint receives a JSON object and parses it into a frozen
:class:`Query`.  Parsing is *strict* — unknown keys, wrong types and
out-of-range values are :class:`SchemaError`\\ s (HTTP 400), never
silently ignored — so that a query's :meth:`Query.identity` document is
canonical: two requests that mean the same thing produce the same
identity, hence the same fingerprint, hence one coalesced computation
and one cached response.

Frequencies cross the API boundary in GHz (the human unit the paper and
the CLI use) and are converted exactly once, through
:func:`repro.units.ghz` / :func:`repro.units.to_ghz`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.cache import fingerprint
from repro.machines.registry import list_clusters
from repro.units import ghz
from repro.workloads.registry import list_programs

#: POST endpoints the service answers (path suffix under ``/v1/``).
ENDPOINTS = ("evaluate_space", "search", "pareto", "whatif", "ucr")

#: Named configuration spaces (beyond an explicit grid).
SPACE_NAMES = ("physical", "pareto")

#: Queueing variants, mirroring :func:`repro.core.vectorized.evaluate_configs`.
QUEUEING_VARIANTS = ("bracketed", "mg1", "none")

#: Search objectives and the constraint each one requires.
OBJECTIVES = ("min_energy", "min_time")

#: What-if knobs, each a positive scale factor applied to the model.
WHATIF_KNOBS = (
    "memory_bandwidth",
    "network_bandwidth",
    "network_latency",
    "idle_power",
)


class SchemaError(ValueError):
    """A request body failed validation (rendered as HTTP 400)."""


@dataclass(frozen=True)
class Query:
    """One parsed, canonical service query.

    ``space`` is either a name from :data:`SPACE_NAMES` or an explicit
    grid triple ``(nodes, cores, frequencies_hz)`` with frequencies
    already converted to Hz.  ``factors`` is the sorted what-if knob
    table (empty for every other endpoint).
    """

    endpoint: str
    cluster: str
    program: str
    space: str | tuple
    class_name: str | None = None
    queueing: str = "bracketed"
    service_overlap: bool = True
    objective: str | None = None
    deadline_s: float | None = None
    budget_j: float | None = None
    factors: tuple[tuple[str, float], ...] = field(default=())

    def identity(self) -> dict[str, Any]:
        """The JSON-able document this query is fingerprinted on."""
        return {
            "kind": "repro_serve_query",
            "endpoint": self.endpoint,
            "cluster": self.cluster,
            "program": self.program,
            "space": (
                self.space
                if isinstance(self.space, str)
                else [list(axis) for axis in self.space]
            ),
            "class_name": self.class_name,
            "queueing": self.queueing,
            "service_overlap": self.service_overlap,
            "objective": self.objective,
            "deadline_s": self.deadline_s,
            "budget_j": self.budget_j,
            "factors": [list(pair) for pair in self.factors],
        }

    def digest(self) -> str:
        """Content fingerprint of the canonical identity document."""
        return fingerprint(self.identity())


def _require_str(payload: Mapping, key: str, choices: tuple[str, ...]) -> str:
    value = payload.get(key)
    if not isinstance(value, str) or value not in choices:
        raise SchemaError(
            f"{key!r} must be one of {', '.join(choices)} — got {value!r}"
        )
    return value


def _positive_number(value: object, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{what} must be a number — got {value!r}")
    if not value > 0:
        raise SchemaError(f"{what} must be positive — got {value!r}")
    return float(value)


def _parse_axis(value: object, what: str, integral: bool) -> tuple:
    if not isinstance(value, (list, tuple)) or not value:
        raise SchemaError(f"{what} must be a non-empty list")
    out = []
    for item in value:
        n = _positive_number(item, f"{what} entry")
        if integral:
            if n != int(n):
                raise SchemaError(f"{what} entry must be an integer — got {item!r}")
            out.append(int(n))
        else:
            out.append(n)
    return tuple(out)


def _parse_space(value: object) -> str | tuple:
    if value is None:
        return "physical"
    if isinstance(value, str):
        if value not in SPACE_NAMES:
            raise SchemaError(
                f"'space' must be one of {', '.join(SPACE_NAMES)} or a grid "
                f"object — got {value!r}"
            )
        return value
    if isinstance(value, Mapping):
        unknown = set(value) - {"nodes", "cores", "frequencies_ghz"}
        if unknown:
            raise SchemaError(
                f"unknown grid keys: {', '.join(sorted(map(str, unknown)))}"
            )
        nodes = _parse_axis(value.get("nodes"), "'space.nodes'", integral=True)
        cores = _parse_axis(value.get("cores"), "'space.cores'", integral=True)
        freqs = _parse_axis(
            value.get("frequencies_ghz"), "'space.frequencies_ghz'", integral=False
        )
        return (nodes, cores, tuple(ghz(f) for f in freqs))
    raise SchemaError(f"'space' must be a name or a grid object — got {value!r}")


def _parse_factors(value: object) -> tuple[tuple[str, float], ...]:
    if not isinstance(value, Mapping) or not value:
        raise SchemaError(
            "'factors' must be a non-empty object of "
            f"{{{', '.join(WHATIF_KNOBS)}}} scale factors"
        )
    unknown = set(value) - set(WHATIF_KNOBS)
    if unknown:
        raise SchemaError(
            f"unknown what-if knobs: {', '.join(sorted(map(str, unknown)))}"
        )
    return tuple(
        sorted((k, _positive_number(v, f"factor {k!r}")) for k, v in value.items())
    )


#: Keys every endpoint accepts.
_COMMON_KEYS = {"cluster", "program", "space", "class_name", "queueing",
                "service_overlap"}

#: Extra keys per endpoint.
_EXTRA_KEYS = {
    "evaluate_space": set(),
    "pareto": set(),
    "ucr": set(),
    "search": {"objective", "deadline_s", "budget_j"},
    "whatif": {"factors"},
}


def parse_query(endpoint: str, payload: object) -> Query:
    """Parse one endpoint's JSON body into a canonical :class:`Query`.

    Raises :class:`SchemaError` on any validation failure; the message is
    safe to return to the caller verbatim.
    """
    if endpoint not in ENDPOINTS:
        raise SchemaError(f"unknown endpoint {endpoint!r}")
    if not isinstance(payload, Mapping):
        raise SchemaError("request body must be a JSON object")
    allowed = _COMMON_KEYS | _EXTRA_KEYS[endpoint]
    unknown = set(payload) - allowed
    if unknown:
        raise SchemaError(
            f"unknown keys for {endpoint}: {', '.join(sorted(map(str, unknown)))}"
        )

    cluster = _require_str(payload, "cluster", tuple(list_clusters()))
    program = _require_str(payload, "program", tuple(list_programs()))
    space = _parse_space(payload.get("space"))
    class_name = payload.get("class_name")
    if class_name is not None and not isinstance(class_name, str):
        raise SchemaError(f"'class_name' must be a string — got {class_name!r}")
    queueing = "bracketed"
    if "queueing" in payload:
        queueing = _require_str(payload, "queueing", QUEUEING_VARIANTS)
    service_overlap = payload.get("service_overlap", True)
    if not isinstance(service_overlap, bool):
        raise SchemaError(
            f"'service_overlap' must be a boolean — got {service_overlap!r}"
        )

    objective = deadline_s = budget_j = None
    factors: tuple[tuple[str, float], ...] = ()
    if endpoint == "search":
        objective = _require_str(payload, "objective", OBJECTIVES)
        if objective == "min_energy":
            if "budget_j" in payload:
                raise SchemaError("'budget_j' does not apply to min_energy")
            deadline_s = _positive_number(payload.get("deadline_s"), "'deadline_s'")
        else:
            if "deadline_s" in payload:
                raise SchemaError("'deadline_s' does not apply to min_time")
            budget_j = _positive_number(payload.get("budget_j"), "'budget_j'")
    elif endpoint == "whatif":
        factors = _parse_factors(payload.get("factors"))

    return Query(
        endpoint=endpoint,
        cluster=cluster,
        program=program,
        space=space,
        class_name=class_name,
        queueing=queueing,
        service_overlap=service_overlap,
        objective=objective,
        deadline_s=deadline_s,
        budget_j=budget_j,
        factors=factors,
    )

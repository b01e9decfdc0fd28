"""Structural validation for loadgen reports (no third-party deps).

The smoke gate promises "schema-valid JSON" without a jsonschema
dependency: a template is a nested description — a ``type`` (or tuple of
types) for leaves, a dict of required keys for objects, and
``Optional(template)`` for keys that may be absent or None. Validation
returns a list of human-readable problems (empty = valid), each naming
the JSON path that broke, so a CI failure says *what* is malformed, not
just that something is.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple, Union

__all__ = [
    "DRIVER_SUMMARY_TEMPLATE",
    "LATENCY_TEMPLATE",
    "Optional",
    "SLO_RESULT_TEMPLATE",
    "SOAK_TEMPLATE",
    "validate",
    "validate_loadgen_section",
]

_NUMBER = (int, float)


class Optional:
    """Marks a template key as allowed to be absent or None."""

    def __init__(self, template: Any) -> None:
        self.template = template


Template = Union[type, Tuple[type, ...], Dict[str, Any], list, Optional]


def validate(value: Any, template: Template, path: str = "$") -> List[str]:
    """Check ``value`` against ``template``; returns problems (empty = ok)."""
    problems: List[str] = []
    if isinstance(template, Optional):
        if value is None:
            return problems
        return validate(value, template.template, path)
    if isinstance(template, dict):
        if not isinstance(value, dict):
            return [f"{path}: expected object, got {type(value).__name__}"]
        for key, sub in template.items():
            if key not in value:
                if isinstance(sub, Optional):
                    continue
                problems.append(f"{path}.{key}: missing required key")
                continue
            problems.extend(validate(value[key], sub, f"{path}.{key}"))
        return problems
    if isinstance(template, list):
        if not isinstance(value, list):
            return [f"{path}: expected array, got {type(value).__name__}"]
        for index, item in enumerate(value):
            problems.extend(validate(item, template[0], f"{path}[{index}]"))
        return problems
    if isinstance(template, tuple) or isinstance(template, type):
        # bool is an int subclass; don't let True satisfy a number slot.
        if isinstance(value, bool) and bool not in (
            template if isinstance(template, tuple) else (template,)
        ):
            return [f"{path}: expected {template}, got bool"]
        if not isinstance(value, template):
            expected = (
                "/".join(t.__name__ for t in template)
                if isinstance(template, tuple)
                else template.__name__
            )
            return [
                f"{path}: expected {expected}, got {type(value).__name__}"
            ]
        return problems
    return [f"{path}: unsupported template {template!r}"]


#: A non-empty latency summary row (the shared bench schema, four nines).
LATENCY_TEMPLATE: Dict[str, Any] = {
    "count": int,
    "p50_ms": _NUMBER,
    "p95_ms": _NUMBER,
    "p99_ms": _NUMBER,
    "p999_ms": Optional(_NUMBER),
    "max_ms": _NUMBER,
    "mean_ms": _NUMBER,
}

#: One driver run (:meth:`repro.loadgen.driver.DriverResult.summary`).
DRIVER_SUMMARY_TEMPLATE: Dict[str, Any] = {
    "arrival": str,
    "transport": str,
    "offered_qps": _NUMBER,
    "achieved_qps": _NUMBER,
    "requests": int,
    "completed": int,
    "failed_queries": int,
    "mismatched_queries": int,
    "wall_s": _NUMBER,
    "latency": LATENCY_TEMPLATE,
}

#: One saturation search (:meth:`repro.loadgen.slo.SloSearchResult.as_dict`).
SLO_RESULT_TEMPLATE: Dict[str, Any] = {
    "slo_ms": _NUMBER,
    "percentile": str,
    "max_sustained_qps": _NUMBER,
    "sustained": Optional(DRIVER_SUMMARY_TEMPLATE),
    "probes": [DRIVER_SUMMARY_TEMPLATE],
}

#: One many-site soak (:func:`repro.loadgen.soak.run_site_soak`).
SOAK_TEMPLATE: Dict[str, Any] = {
    "sites": int,
    "spec": str,
    "zipf_s": _NUMBER,
    "queries": int,
    "register_s": _NUMBER,
    "warm_s": _NUMBER,
    "pipelines_built": int,
    "rss_kb": {
        "baseline": Optional(int),
        "registered": Optional(int),
        "warm": Optional(int),
        "queried": Optional(int),
    },
    "query_phase": {
        "failed_queries": int,
        "completed": int,
        "qps": _NUMBER,
        "distinct_sites_hit": int,
        "latency": LATENCY_TEMPLATE,
    },
    "routing": dict,
}


def validate_loadgen_section(section: Dict[str, Any]) -> List[str]:
    """Validate a full ``loadgen`` bench section record."""
    template: Dict[str, Any] = {
        "sites": [str],
        "plan": {
            "arrival": str,
            "process": str,
            "seed": int,
            "sites": int,
            "zipf_s": _NUMBER,
            "rate_qps": _NUMBER,
            "clients": int,
            "requests": int,
            "duration_s": _NUMBER,
            "fingerprint": str,
        },
        "plan_bit_identical": bool,
        "slo_ms": _NUMBER,
        "saturation": dict,
        "closed_loop": DRIVER_SUMMARY_TEMPLATE,
        "perturbation": {
            "quiet": DRIVER_SUMMARY_TEMPLATE,
            "refresh": DRIVER_SUMMARY_TEMPLATE,
        },
        "soak": SOAK_TEMPLATE,
    }
    problems = validate(section, template, "$.loadgen")
    saturation = section.get("saturation")
    if isinstance(saturation, dict):
        for key, result in saturation.items():
            problems.extend(
                validate(result, SLO_RESULT_TEMPLATE, f"$.loadgen.saturation.{key}")
            )
    return problems

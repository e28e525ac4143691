"""Versioned, deterministic serialization of case bases and outcomes.

Documents are self-contained JSON. A case-base document carries the taxonomy
(as {name, parent} records, null parent for the root), the fuzzy profiles,
and the cases; descriptor values encode as {"symbolic": <label>} or
{"numeric": <magnitude>, "unit": <u>}, operating modes as "N"/"A"/null.

Encoding is deterministic: sorted keys, ids ascending, floats rendered with
full round-trip precision. Decoding never yields a partial case base; every
problem is reported with the field path where it was found.
"""

from __future__ import annotations

import json
import math
from typing import Any, Mapping, Optional

from .adaptation import AdaptationTerm
from .cases import (
    Case,
    CaseBase,
    CaseKind,
    Descriptor,
    ImperfectionFlags,
    NumericValue,
    OperatingMode,
    Solution,
    SymbolicValue,
    validate_case,
)
from .errors import DocumentSyntaxError, DocumentValidationError
from .fuzzy import FuzzyProfile, FuzzySubset
from .measures import LocalScores, ScoringMode
from .pipeline import Correction, DiagnosisOutcome, ScoredCase
from .taxonomy import Taxonomy

FORMAT_VERSION = 1

_MODE_CODES = {OperatingMode.NORMAL: "N", OperatingMode.ABNORMAL: "A"}


def _fail(path: str, message: str) -> None:
    raise DocumentSyntaxError(f"{path}: {message}")


def _as_dict(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        _fail(path, f"expected an array, got {type(value).__name__}")
    return value


def _get(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        _fail(path, f"missing required field {key!r}")
    return obj[key]


def _str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {type(value).__name__}")
    return value

def _opt_str(value: Any, path: str) -> Optional[str]:
    if value is None:
        return None
    return _str(value, path)


def _num(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        _fail(path, f"expected a finite number, got {number!r}")
    return number


def _bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        _fail(path, f"expected a boolean, got {type(value).__name__}")
    return value


def _parse_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(f"document is not valid JSON: {exc}") from None


def _check_version(doc: dict) -> None:
    version = _get(doc, "format_version", "$")
    if version != FORMAT_VERSION:
        raise DocumentSyntaxError(
            f"$.format_version: unsupported version {version!r}, expected {FORMAT_VERSION}"
        )


def _decode_operating_mode(value: Any, path: str) -> OperatingMode:
    if value is None:
        return OperatingMode.UNSPECIFIED
    code = _str(value, path)
    for mode, mode_code in _MODE_CODES.items():
        if code == mode_code:
            return mode
    _fail(path, f"expected \"N\", \"A\", or null, got {code!r}")
    raise AssertionError("unreachable")


def _decode_value(value: Any, path: str) -> SymbolicValue | NumericValue:
    obj = _as_dict(value, path)
    if "symbolic" in obj:
        return SymbolicValue(label=_str(obj["symbolic"], f"{path}.symbolic"))
    if "numeric" in obj:
        return NumericValue(
            magnitude=_num(obj["numeric"], f"{path}.numeric"),
            unit=_str(_get(obj, "unit", path), f"{path}.unit"),
        )
    _fail(path, "expected a \"symbolic\" or \"numeric\" value")
    raise AssertionError("unreachable")


def _decode_descriptor(value: Any, path: str) -> Descriptor:
    obj = _as_dict(value, path)
    return Descriptor(
        id=_str(_get(obj, "id", path), f"{path}.id"),
        name=_str(_get(obj, "name", path), f"{path}.name"),
        value=_decode_value(_get(obj, "value", path), f"{path}.value"),
        state=_opt_str(obj.get("state"), f"{path}.state"),
        operating_mode=_decode_operating_mode(obj.get("operating_mode"), f"{path}.operating_mode"),
        flags=ImperfectionFlags(
            imprecise=_bool(obj.get("imprecise", False), f"{path}.imprecise"),
            uncertain=_bool(obj.get("uncertain", False), f"{path}.uncertain"),
        ),
    )


def _decode_case(value: Any, path: str, violations: list[str]) -> Case:
    obj = _as_dict(value, path)
    case_id = _str(_get(obj, "id", path), f"{path}.id")
    kind_code = _str(_get(obj, "kind", path), f"{path}.kind")
    try:
        kind = CaseKind(kind_code)
    except ValueError:
        _fail(f"{path}.kind", f"expected \"source\" or \"target\", got {kind_code!r}")
    descriptors: dict[str, Descriptor] = {}
    for i, rec in enumerate(_as_list(_get(obj, "descriptors", path), f"{path}.descriptors")):
        d = _decode_descriptor(rec, f"{path}.descriptors[{i}]")
        if d.id in descriptors:
            violations.append(f"{path}.descriptors[{i}].id: duplicate descriptor id {d.id!r}")
            continue
        descriptors[d.id] = d
    solution = None
    raw_solution = obj.get("solution")
    if raw_solution is not None:
        sol = _as_dict(raw_solution, f"{path}.solution")
        solution = Solution(
            failing_component=_str(
                _get(sol, "failing_component", f"{path}.solution"), f"{path}.solution.failing_component"
            ),
            action=_str(_get(sol, "action", f"{path}.solution"), f"{path}.solution.action"),
        )
    return Case(id=case_id, kind=kind, descriptors=descriptors, solution=solution)


def decode_case_base(text: str, validate: bool = True) -> CaseBase:
    """Parse and validate a case-base document.

    Raises DocumentSyntaxError when the document cannot be read under this
    schema (bad JSON, bad shapes, unknown format version), and
    DocumentValidationError, carrying every violation found, when it can.
    With validate=False the per-case semantic checks are skipped, for callers
    that validate against a different context afterwards.
    """
    doc = _as_dict(_parse_json(text), "$")
    _check_version(doc)
    violations: list[str] = []

    taxonomy = None
    nodes = []
    for i, rec in enumerate(_as_list(_get(doc, "taxonomy", "$"), "$.taxonomy")):
        obj = _as_dict(rec, f"$.taxonomy[{i}]")
        name = _str(_get(obj, "name", f"$.taxonomy[{i}]"), f"$.taxonomy[{i}].name")
        parent = _opt_str(obj.get("parent"), f"$.taxonomy[{i}].parent")
        nodes.append((name, parent))
    try:
        taxonomy = Taxonomy(nodes)
    except ValueError as exc:
        violations.append(f"$.taxonomy: {exc}")

    profiles: dict[str, FuzzyProfile] = {}
    for i, rec in enumerate(_as_list(_get(doc, "fuzzy_profiles", "$"), "$.fuzzy_profiles")):
        path = f"$.fuzzy_profiles[{i}]"
        obj = _as_dict(rec, path)
        descriptor_id = _str(_get(obj, "descriptor_id", path), f"{path}.descriptor_id")
        subsets = []
        for j, sub in enumerate(_as_list(_get(obj, "subsets", path), f"{path}.subsets")):
            sub_obj = _as_dict(sub, f"{path}.subsets[{j}]")
            sub_path = f"{path}.subsets[{j}]"
            try:
                subsets.append(
                    FuzzySubset(
                        label=_str(_get(sub_obj, "label", sub_path), f"{sub_path}.label"),
                        lower=_num(_get(sub_obj, "lower", sub_path), f"{sub_path}.lower"),
                        upper=_num(_get(sub_obj, "upper", sub_path), f"{sub_path}.upper"),
                    )
                )
            except ValueError as exc:
                violations.append(f"{sub_path}: {exc}")
        if descriptor_id in profiles:
            violations.append(f"{path}.descriptor_id: duplicate profile for {descriptor_id!r}")
            continue
        try:
            profiles[descriptor_id] = FuzzyProfile(
                descriptor_id=descriptor_id,
                domain_lower=_num(_get(obj, "domain_lower", path), f"{path}.domain_lower"),
                domain_upper=_num(_get(obj, "domain_upper", path), f"{path}.domain_upper"),
                prototype=_num(_get(obj, "prototype", path), f"{path}.prototype"),
                half_width=_num(_get(obj, "half_width", path), f"{path}.half_width"),
                subsets=subsets,
            )
        except ValueError as exc:
            violations.append(f"{path}: {exc}")

    cases: dict[str, Case] = {}
    case_paths: dict[str, str] = {}
    for i, rec in enumerate(_as_list(_get(doc, "cases", "$"), "$.cases")):
        path = f"$.cases[{i}]"
        case = _decode_case(rec, path, violations)
        if case.id in cases:
            violations.append(f"{path}.id: duplicate case id {case.id!r}")
            continue
        cases[case.id] = case
        case_paths[case.id] = path

    if taxonomy is None:
        raise DocumentValidationError(violations)
    if validate:
        for cid in sorted(cases):
            for message in validate_case(cases[cid], taxonomy, profiles):
                violations.append(f"{case_paths[cid]}: {message}")
    if violations:
        raise DocumentValidationError(violations)
    return CaseBase(taxonomy=taxonomy, profiles=profiles, cases=cases)


def _encode_value(value: SymbolicValue | NumericValue) -> dict:
    if isinstance(value, SymbolicValue):
        return {"symbolic": value.label}
    return {"numeric": value.magnitude, "unit": value.unit}


def _encode_descriptor(d: Descriptor) -> dict:
    return {
        "id": d.id,
        "name": d.name,
        "value": _encode_value(d.value),
        "state": d.state,
        "operating_mode": _MODE_CODES.get(d.operating_mode),
        "imprecise": d.flags.imprecise,
        "uncertain": d.flags.uncertain,
    }


def _encode_case(case: Case) -> dict:
    return {
        "id": case.id,
        "kind": case.kind.value,
        "descriptors": [_encode_descriptor(case.descriptors[did]) for did in sorted(case.descriptors)],
        "solution": None
        if case.solution is None
        else {
            "failing_component": case.solution.failing_component,
            "action": case.solution.action,
        },
    }


def encode_case_base(case_base: CaseBase) -> str:
    """Render a case base as its canonical document: same value in, same
    bytes out."""
    doc = {
        "format_version": FORMAT_VERSION,
        "taxonomy": [
            {"name": name, "parent": case_base.taxonomy.parent(name)}
            for name in case_base.taxonomy.nodes()
        ],
        "fuzzy_profiles": [
            {
                "descriptor_id": p.descriptor_id,
                "domain_lower": p.domain_lower,
                "domain_upper": p.domain_upper,
                "prototype": p.prototype,
                "half_width": p.half_width,
                "subsets": [
                    {"label": s.label, "lower": s.lower, "upper": s.upper} for s in p.subsets
                ],
            }
            for _, p in sorted(case_base.profiles.items())
        ],
        "cases": [_encode_case(case_base.cases[cid]) for cid in sorted(case_base.cases)],
    }
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


def _encode_local_scores(row: LocalScores) -> dict:
    return {
        "descriptor_id": row.descriptor_id,
        "phi_value": row.phi_value,
        "phi_state": row.phi_state,
        "phi_presence": row.phi_presence,
        "phi_om": row.phi_om,
        "product": row.product,
    }


def _encode_adaptation_term(row: AdaptationTerm) -> dict:
    return {
        "descriptor_id": row.descriptor_id,
        "weight": row.weight,
        "phi_presence": row.phi_presence,
        "phi_value": row.phi_value,
        "term": row.term,
    }


def encode_outcome(outcome: DiagnosisOutcome) -> str:
    """Render a diagnosis outcome deterministically; scores keep full
    precision so decoding reproduces them exactly."""
    doc = {
        "format_version": FORMAT_VERSION,
        "mode": outcome.mode.value,
        "selected_case_id": outcome.selected_case_id,
        "solution": None
        if outcome.solution is None
        else {
            "failing_component": outcome.solution.failing_component,
            "action": outcome.solution.action,
        },
        "corrections_applied": [
            {"descriptor_id": c.descriptor_id, "original": c.original, "corrected": c.corrected}
            for c in outcome.corrections_applied
        ],
        "ranking": [
            {
                "case_id": sc.case_id,
                "m_r": sc.m_r,
                "m_a": sc.m_a,
                "breakdown_r": [_encode_local_scores(row) for row in sc.breakdown_r],
                "breakdown_a": None
                if sc.breakdown_a is None
                else [_encode_adaptation_term(row) for row in sc.breakdown_a],
            }
            for sc in outcome.ranking
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


def decode_outcome(text: str) -> DiagnosisOutcome:
    """Parse an outcome document back into its in-memory form."""
    doc = _as_dict(_parse_json(text), "$")
    _check_version(doc)
    mode_code = _str(_get(doc, "mode", "$"), "$.mode")
    try:
        mode = ScoringMode(mode_code)
    except ValueError:
        _fail("$.mode", f"expected \"typical\" or \"enhanced\", got {mode_code!r}")
    corrections = []
    for i, rec in enumerate(_as_list(_get(doc, "corrections_applied", "$"), "$.corrections_applied")):
        path = f"$.corrections_applied[{i}]"
        obj = _as_dict(rec, path)
        corrections.append(
            Correction(
                descriptor_id=_str(_get(obj, "descriptor_id", path), f"{path}.descriptor_id"),
                original=_num(_get(obj, "original", path), f"{path}.original"),
                corrected=_num(_get(obj, "corrected", path), f"{path}.corrected"),
            )
        )
    ranking = []
    for i, rec in enumerate(_as_list(_get(doc, "ranking", "$"), "$.ranking")):
        path = f"$.ranking[{i}]"
        obj = _as_dict(rec, path)
        breakdown_r = []
        for j, row in enumerate(_as_list(_get(obj, "breakdown_r", path), f"{path}.breakdown_r")):
            row_path = f"{path}.breakdown_r[{j}]"
            row_obj = _as_dict(row, row_path)
            breakdown_r.append(
                LocalScores(
                    descriptor_id=_str(_get(row_obj, "descriptor_id", row_path), f"{row_path}.descriptor_id"),
                    phi_value=_num(_get(row_obj, "phi_value", row_path), f"{row_path}.phi_value"),
                    phi_state=int(_num(_get(row_obj, "phi_state", row_path), f"{row_path}.phi_state")),
                    phi_presence=int(
                        _num(_get(row_obj, "phi_presence", row_path), f"{row_path}.phi_presence")
                    ),
                    phi_om=int(_num(_get(row_obj, "phi_om", row_path), f"{row_path}.phi_om")),
                    product=_num(_get(row_obj, "product", row_path), f"{row_path}.product"),
                )
            )
        breakdown_a = None
        if obj.get("breakdown_a") is not None:
            breakdown_a = []
            for j, row in enumerate(_as_list(obj["breakdown_a"], f"{path}.breakdown_a")):
                row_path = f"{path}.breakdown_a[{j}]"
                row_obj = _as_dict(row, row_path)
                breakdown_a.append(
                    AdaptationTerm(
                        descriptor_id=_str(
                            _get(row_obj, "descriptor_id", row_path), f"{row_path}.descriptor_id"
                        ),
                        weight=int(_num(_get(row_obj, "weight", row_path), f"{row_path}.weight")),
                        phi_presence=int(
                            _num(_get(row_obj, "phi_presence", row_path), f"{row_path}.phi_presence")
                        ),
                        phi_value=_num(_get(row_obj, "phi_value", row_path), f"{row_path}.phi_value"),
                        term=_num(_get(row_obj, "term", row_path), f"{row_path}.term"),
                    )
                )
        m_a_raw = obj.get("m_a")
        ranking.append(
            ScoredCase(
                case_id=_str(_get(obj, "case_id", path), f"{path}.case_id"),
                m_r=_num(_get(obj, "m_r", path), f"{path}.m_r"),
                breakdown_r=breakdown_r,
                m_a=None if m_a_raw is None else _num(m_a_raw, f"{path}.m_a"),
                breakdown_a=breakdown_a,
            )
        )
    solution = None
    raw_solution = doc.get("solution")
    if raw_solution is not None:
        sol = _as_dict(raw_solution, "$.solution")
        solution = Solution(
            failing_component=_str(_get(sol, "failing_component", "$.solution"), "$.solution.failing_component"),
            action=_str(_get(sol, "action", "$.solution"), "$.solution.action"),
        )
    return DiagnosisOutcome(
        selected_case_id=_opt_str(doc.get("selected_case_id"), "$.selected_case_id"),
        solution=solution,
        ranking=ranking,
        mode=mode,
        corrections_applied=corrections,
    )

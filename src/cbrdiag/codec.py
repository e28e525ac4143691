"""Versioned, deterministic serialization of case bases and outcomes.

Documents are self-contained JSON. A case-base document carries the taxonomy
(as {name, parent} records, null parent for the root), the fuzzy profiles,
and the cases; descriptor values encode as {"symbolic": <label>} or
{"numeric": <magnitude>, "unit": <u>}, operating modes as "N"/"A"/null.

Encoding is deterministic: sorted keys, ids ascending, floats rendered with
full round-trip precision. Every document is built as plain dicts and lists,
holding the row objects themselves, and written by one walker, ``_dump``, as
exactly the bytes of ``json.dumps(doc, sort_keys=True, indent=2,
ensure_ascii=False, allow_nan=False)`` plus a newline. Most of it comes from
json's C encoder, which ``indent`` would switch off: each flat container is
encoded in one call whose item separator carries the newline and indent of
its level. A list of rows of a type ``_FIELDS`` declares is written from one
``%`` template per row type, made from those fields, when every column
holds values of exactly its field's type, finite ones for floats; any other
list of rows is written, or refused, as json does with the rows' attribute
dicts. Only the containers that hold containers are walked in Python.
Decoding never yields a partial case base; every problem is reported with
the field path where it was found.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from functools import cache
from json.encoder import encode_basestring
from operator import attrgetter
from typing import Any, NoReturn, Optional

from .cases import (
    Case,
    CaseBase,
    CaseKind,
    Descriptor,
    FLAG_VALUES,
    NumericValue,
    OperatingMode,
    Solution,
    SymbolicValue,
    _collector_paused,
    _descriptor,
    _numeric_value,
    _semantic_violations,
    _type_violations,
)
from .errors import DocumentSyntaxError, DocumentValidationError
from .fuzzy import FuzzyProfile, FuzzySubset
from .measures import AdaptationResult, AdaptationTerm, LocalScores, RetrievalResult, ScoringMode
from .pipeline import Correction, DiagnosisOutcome, ScoredCase
from .taxonomy import Taxonomy

FORMAT_VERSION = 1

_MODE_CODES = {OperatingMode.NORMAL: "N", OperatingMode.ABNORMAL: "A"}
_OPERATING_MODES = {None: OperatingMode.UNSPECIFIED, **{code: mode for mode, code in _MODE_CODES.items()}}
_CASE_KINDS = {kind.value: kind for kind in CaseKind}


def _fail(path: str, message: str) -> NoReturn:
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
    # JSON escapes can spell lone surrogates, which no output can encode.
    if not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            _fail(path, f"expected a string UTF-8 can encode, got {value!r}")
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


def _int(value: Any, path: str) -> int:
    number = _num(value, path)
    if not number.is_integer():
        _fail(path, f"expected an integer, got {number!r}")
    return int(number)


def _bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        _fail(path, f"expected a boolean, got {type(value).__name__}")
    return value


# Flat records encode as objects keyed by their dataclass field names, their
# own attribute dicts. One table per type, {json name: checker}, in field
# order, decodes them; it is made from the type's own field declarations,
# whose types are the strings "str", "float" and "int", since every module
# that declares a row type imports annotations from __future__.
_CHECKERS = {"str": _str, "float": _num, "int": _int}
_FIELDS = {
    cls: {f.name: _CHECKERS[f.type] for f in fields(cls)}
    for cls in (Solution, Correction, FuzzySubset, LocalScores, AdaptationTerm)
}


# The type of the values each checker returns: a row of exactly these types
# is written from its type's template (_row_template).
_TYPES = {_str: str, _num: float, _int: int}


def _decode_row(cls: type, value: Any, path: str) -> Any:
    obj = _as_dict(value, path)
    return cls(
        **{name: check(_get(obj, name, path), f"{path}.{name}") for name, check in _FIELDS[cls].items()}
    )


def _decode_rows(cls: type, value: Any, path: str) -> list:
    return [_decode_row(cls, row, f"{path}[{i}]") for i, row in enumerate(_as_list(value, path))]


_SCALARS = frozenset({str, int, float, bool, type(None)})


@cache
def _encoder(level: int) -> Any:
    """The encoder for one nesting level: it writes the items of a container
    on lines of their own, indented to ``level``. It is only ever given
    scalars and flat containers, which cannot hold a cycle."""
    return json.JSONEncoder(
        sort_keys=True,
        ensure_ascii=False,
        allow_nan=False,
        check_circular=False,
        separators=(",\n" + "  " * level, ": "),
    ).encode


def _encode(value: Any, level: int) -> str:
    """``value`` as ``json.dumps(indent=2)`` writes it with its items at
    ``level``. A scalar is written as json's encoders write it, an ``int``
    or a finite ``float`` with its ``repr``; a flat container in one call
    to an encoder; a list of rows of a type ``_FIELDS`` declares from that
    type's template (:func:`_encode_rows`); any other container item by
    item."""
    if type(value) is str:
        return encode_basestring(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is int or type(value) is float and math.isfinite(value):
        return repr(value)
    if not value or not isinstance(value, (dict, list, tuple)):
        return _encoder(level)(value)
    indent = "\n" + "  " * level
    close = "\n" + "  " * (level - 1)
    if isinstance(value, dict):
        if _SCALARS.issuperset(map(type, value.values())):
            return "{" + indent + _encoder(level)(value)[1:-1] + close + "}"
        items = [encode_basestring(k) + ": " + _encode(v, level + 1) for k, v in sorted(value.items())]
        return _items(items, level, "{}")
    if type(value[0]) in _FIELDS:
        return _encode_rows(type(value[0]), value, level)
    if _SCALARS.issuperset(map(type, value)):
        return "[" + indent + _encoder(level)(value)[1:-1] + close + "]"
    return _items([_encode(v, level + 1) for v in value], level, "[]")


def _items(items: list[str], level: int, brackets: str) -> str:
    """Encoded items in ``brackets``, ``"{}"`` or ``"[]"``, on lines of their
    own at ``level``, as ``json.dumps(indent=2)`` lays them out."""
    if not items:
        return brackets
    indent = "\n" + "  " * level
    return brackets[0] + indent + ("," + indent).join(items) + indent[:-2] + brackets[1]


@cache
def _row_template(cls: type, level: int) -> tuple[Any, tuple[type, ...], str]:
    """How rows of ``cls`` are written at ``level``: a getter of their field
    values in sorted-name order, those fields' types, and one ``%`` template
    for a row, its keys in sorted order at their indent, ``%s`` for an
    encoded string and ``%r`` for a float or an int (``float.__repr__`` and
    ``int.__repr__``, which json's encoders call)."""
    names = sorted(_FIELDS[cls])
    types = tuple(_TYPES[_FIELDS[cls][name]] for name in names)
    lines = [encode_basestring(name) + (": %s" if t is str else ": %r") for name, t in zip(names, types)]
    return attrgetter(*names), types, _items(lines, level + 1, "{}")


def _encode_rows(cls: type, rows: list, level: int) -> str:
    """``_encode([vars(row) for row in rows], level)``, from the template of
    ``cls`` when every row is a ``cls`` and every column holds values of
    exactly its field's type, finite ones for floats; any other list goes
    through ``_encode``, which writes it, or refuses it, as json does. The
    check runs per column, in C: per row it costs what the template saves."""
    getter, types, template = _row_template(cls, level)
    if rows and set(map(type, rows)) == {cls}:
        columns: list[Any] = list(zip(*map(getter, rows)))
        for j, t in enumerate(types):
            # A sum is finite only if every term is; one that overflows
            # merely sends the list to _encode.
            if set(map(type, columns[j])) != {t} or t is float and not math.isfinite(sum(columns[j])):
                break
            if t is str:
                columns[j] = map(encode_basestring, columns[j])
        else:
            return _items([template % row for row in zip(*columns)], level, "[]")
    return _encode([vars(row) for row in rows], level)


def _dump(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False,
    allow_nan=False)`` and a newline, byte for byte, for a document whose
    keys are strings."""
    return _encode(doc, 1) + "\n"


def _parse_json(text: str) -> Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long integers and too-deep nesting
        raise DocumentSyntaxError(f"document is not valid JSON: {exc}") from None


def _check_version(doc: dict) -> None:
    version = _get(doc, "format_version", "$")
    # A bool is an int to Python, and true == 1.
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise DocumentSyntaxError(
            f"$.format_version: unsupported version {version!r}, expected {FORMAT_VERSION}"
        )


def _decode_operating_mode(value: Any, path: str) -> OperatingMode:
    mode = _OPERATING_MODES.get(_opt_str(value, path))
    if mode is None:
        _fail(path, f"expected \"N\", \"A\", or null, got {value!r}")
    return mode


# Cases and descriptors are decoded by position; their paths are formatted
# only to report an error.
def _case_path(c: int) -> str:
    return f"$.cases[{c}]"


def _descriptor_path(c: int, i: int) -> str:
    return f"$.cases[{c}].descriptors[{i}]"


def _decode_descriptor(value: Any, c: int, i: int, labels: dict[str, SymbolicValue]) -> Descriptor:
    """Decode ``$.cases[{c}].descriptors[{i}]``, a descriptor object.

    Each field is checked inline, in the order id, name, value, state,
    operating_mode, imprecise, uncertain. Only an irregular field goes to the
    checker that owns it, with its path; the checker raises the error, or
    accepts the field (a non-ASCII string, an integer magnitude). So path
    strings are built only for errors. Symbolic values are taken from
    ``labels``, one per label in a decode.
    """
    obj = value if type(value) is dict else _as_dict(value, _descriptor_path(c, i))
    did = obj.get("id")
    if type(did) is not str or not did.isascii():
        did = _str(_get(obj, "id", _descriptor_path(c, i)), f"{_descriptor_path(c, i)}.id")
    name = obj.get("name")
    if type(name) is not str or not name.isascii():
        name = _str(_get(obj, "name", _descriptor_path(c, i)), f"{_descriptor_path(c, i)}.name")
    raw = obj.get("value")
    if type(raw) is not dict:
        raw = _as_dict(_get(obj, "value", _descriptor_path(c, i)), f"{_descriptor_path(c, i)}.value")
    if "symbolic" in raw:
        label = raw["symbolic"]
        if type(label) is not str or not label.isascii():
            label = _str(label, f"{_descriptor_path(c, i)}.value.symbolic")
        symbolic = labels.get(label)
        if symbolic is None:
            symbolic = labels[label] = SymbolicValue(label)
        decoded: SymbolicValue | NumericValue = symbolic
    elif "numeric" in raw:
        magnitude = raw["numeric"]
        if type(magnitude) is not float or not math.isfinite(magnitude):
            magnitude = _num(magnitude, f"{_descriptor_path(c, i)}.value.numeric")
        unit = raw.get("unit")
        if type(unit) is not str or not unit.isascii():
            path = f"{_descriptor_path(c, i)}.value"
            unit = _str(_get(raw, "unit", path), f"{path}.unit")
        decoded = _numeric_value(magnitude, unit)
    else:
        _fail(f"{_descriptor_path(c, i)}.value", "expected a \"symbolic\" or \"numeric\" value")
    state = obj.get("state")
    if state is not None and (type(state) is not str or not state.isascii()):
        state = _str(state, f"{_descriptor_path(c, i)}.state")
    code = obj.get("operating_mode")
    try:
        mode = _OPERATING_MODES[code]
    except (KeyError, TypeError):
        mode = _decode_operating_mode(code, f"{_descriptor_path(c, i)}.operating_mode")
    imprecise = obj.get("imprecise", False)
    if type(imprecise) is not bool:
        imprecise = _bool(imprecise, f"{_descriptor_path(c, i)}.imprecise")
    uncertain = obj.get("uncertain", False)
    if type(uncertain) is not bool:
        uncertain = _bool(uncertain, f"{_descriptor_path(c, i)}.uncertain")
    return _descriptor(did, name, decoded, state, mode, FLAG_VALUES[imprecise, uncertain])


def _decode_case(value: Any, c: int, violations: list[str], labels: dict[str, SymbolicValue]) -> Case:
    """Decode ``$.cases[{c}]``, a case object, checking its fields inline in
    the order id, kind, descriptors, solution, as ``_decode_descriptor``
    does."""
    obj = value if type(value) is dict else _as_dict(value, _case_path(c))
    case_id = obj.get("id")
    if type(case_id) is not str or not case_id.isascii():
        case_id = _str(_get(obj, "id", _case_path(c)), f"{_case_path(c)}.id")
    code = obj.get("kind")
    try:
        kind = _CASE_KINDS[code]
    except (KeyError, TypeError):
        code = _str(_get(obj, "kind", _case_path(c)), f"{_case_path(c)}.kind")
        _fail(f"{_case_path(c)}.kind", f"expected \"source\" or \"target\", got {code!r}")
    records = obj.get("descriptors")
    if type(records) is not list:
        records = _as_list(_get(obj, "descriptors", _case_path(c)), f"{_case_path(c)}.descriptors")
    descriptors: dict[str, Descriptor] = {}
    for i, rec in enumerate(records):
        d = _decode_descriptor(rec, c, i, labels)
        if d.id in descriptors:
            violations.append(f"{_descriptor_path(c, i)}.id: duplicate descriptor id {d.id!r}")
            continue
        descriptors[d.id] = d
    solution = obj.get("solution")
    if solution is not None:
        component = action = None
        if type(solution) is dict:
            component, action = solution.get("failing_component"), solution.get("action")
        if type(component) is str and type(action) is str and component.isascii() and action.isascii():
            solution = Solution(component, action)
        else:
            solution = _decode_row(Solution, solution, f"{_case_path(c)}.solution")
    return Case(case_id, kind, descriptors, solution)


@_collector_paused()
def decode_case_base(text: str, validate: bool = True) -> CaseBase:
    """Parse and validate a case-base document.

    Raises DocumentSyntaxError when the document cannot be read under this
    schema (bad JSON, bad shapes, unknown format version), and
    DocumentValidationError, carrying every violation found, when it can.
    With validate=False the per-case semantic checks are skipped, for callers
    that validate against a different context afterwards; the base's first
    query then validates its sources, which a validated base skips. The
    cyclic garbage collector is paused while it runs and left as the caller
    had it.
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
            sub_path = f"{path}.subsets[{j}]"
            try:
                subsets.append(_decode_row(FuzzySubset, sub, sub_path))
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
    positions: dict[str, int] = {}
    labels: dict[str, SymbolicValue] = {}
    records = _as_list(_get(doc, "cases", "$"), "$.cases")
    for c in range(len(records)):
        case = _decode_case(records[c], c, violations, labels)
        # Free this case's parsed JSON while the next one decodes.
        records[c] = None
        if case.id in cases:
            violations.append(f"{_case_path(c)}.id: duplicate case id {case.id!r}")
            continue
        cases[case.id] = case
        positions[case.id] = c

    if taxonomy is None:
        raise DocumentValidationError(violations)
    if validate:
        # The inline checks above have refused every field validate_case's
        # type half reports, so only its semantic half runs.
        for cid in sorted(cases):
            for message in _semantic_violations(cases[cid], taxonomy, profiles):
                violations.append(f"{_case_path(positions[cid])}: {message}")
    if violations:
        raise DocumentValidationError(violations)
    case_base = CaseBase(taxonomy=taxonomy, profiles=profiles, cases=cases)
    object.__setattr__(case_base, "_validated", validate)
    return case_base


def _encode_descriptor(d: Descriptor) -> dict:
    v = d.value
    value = {"symbolic": v.label} if isinstance(v, SymbolicValue) else {"numeric": v.magnitude, "unit": v.unit}
    return {
        "id": d.id,
        "name": d.name,
        "value": value,
        "state": d.state,
        "operating_mode": _MODE_CODES.get(d.operating_mode),
        "imprecise": d.flags.imprecise,
        "uncertain": d.flags.uncertain,
    }


def _encode_case(case: Case) -> dict:
    return {
        "id": case.id,
        "kind": case.kind.value,
        "descriptors": [_encode_descriptor(case.descriptors[key]) for key in sorted(case.descriptors)],
        "solution": None if case.solution is None else vars(case.solution),
    }


@_collector_paused()
def encode_case_base(case_base: CaseBase) -> str:
    """Render a case base as its canonical document: same value in, same
    bytes out. A case that :func:`validate_case`'s type half reports, which
    no document can hold, raises ``DocumentValidationError`` with those
    violations, which are all that ``validate_case`` reports of it; a
    well-typed case that validation reports is written. The cyclic garbage
    collector is paused while it runs, as in ``decode_case_base``."""
    cases = [case_base.cases[cid] for cid in sorted(case_base.cases)]
    for case in cases:
        wrong = _type_violations(case)
        if wrong:
            raise DocumentValidationError(wrong)
    doc = {
        "format_version": FORMAT_VERSION,
        "taxonomy": [
            {"name": name, "parent": case_base.taxonomy.parent(name)}
            for name in case_base.taxonomy.nodes()
        ],
        "fuzzy_profiles": [vars(p) for _, p in sorted(case_base.profiles.items())],
        "cases": [_encode_case(case) for case in cases],
    }
    return _dump(doc)


def encode_outcome(outcome: DiagnosisOutcome) -> str:
    """Render a diagnosis outcome deterministically; scores keep full
    precision so decoding reproduces them exactly. The document holds each
    ranked case's attribute dict and the row lists as they are; ``_dump``
    writes each row list from its row type's template (:func:`_encode_rows`)."""
    doc = {
        "format_version": FORMAT_VERSION,
        "mode": outcome.mode.value,
        "selected_case_id": outcome.selected_case_id,
        "solution": None if outcome.solution is None else vars(outcome.solution),
        "corrections_applied": outcome.corrections_applied,
        "ranking": [vars(sc) for sc in outcome.ranking],
    }
    return _dump(doc)


def with_running_sums(rows: list, total_field: str) -> list[dict]:
    """Encoded rows, each with the running sum of ``total_field`` through it."""
    total = 0.0
    encoded = []
    for row in rows:
        total += getattr(row, total_field)
        encoded.append({**vars(row), "running_sum": total})
    return encoded


def encode_explanation(
    mode: ScoringMode,
    target_id: str,
    source_id: str,
    corrections: list[Correction],
    retrieval: RetrievalResult,
    adaptation: AdaptationResult,
) -> str:
    """Render one target/source pair's score breakdowns, the document the
    ``explain`` command prints: both measures' rows, each with the running
    sum of its numerator terms."""
    doc = {
        "format_version": FORMAT_VERSION,
        "mode": mode.value,
        "target_id": target_id,
        "source_id": source_id,
        "corrections_applied": corrections,
        "m_r": retrieval.score,
        "retrieval_rows": with_running_sums(retrieval.breakdown, "product"),
        "m_a": adaptation.score,
        "adaptation_rows": with_running_sums(adaptation.breakdown, "term"),
    }
    return _dump(doc)


def decode_outcome(text: str) -> DiagnosisOutcome:
    """Parse an outcome document back into its in-memory form."""
    doc = _as_dict(_parse_json(text), "$")
    _check_version(doc)
    mode_code = _str(_get(doc, "mode", "$"), "$.mode")
    try:
        mode = ScoringMode(mode_code)
    except ValueError:
        _fail("$.mode", f"expected \"typical\" or \"enhanced\", got {mode_code!r}")
    corrections = _decode_rows(Correction, _get(doc, "corrections_applied", "$"), "$.corrections_applied")
    ranking = []
    for i, rec in enumerate(_as_list(_get(doc, "ranking", "$"), "$.ranking")):
        path = f"$.ranking[{i}]"
        obj = _as_dict(rec, path)
        breakdown_r = _decode_rows(LocalScores, _get(obj, "breakdown_r", path), f"{path}.breakdown_r")
        raw_a = obj.get("breakdown_a")
        breakdown_a = None if raw_a is None else _decode_rows(AdaptationTerm, raw_a, f"{path}.breakdown_a")
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
    raw_solution = doc.get("solution")
    solution = None if raw_solution is None else _decode_row(Solution, raw_solution, "$.solution")
    return DiagnosisOutcome(
        selected_case_id=_opt_str(doc.get("selected_case_id"), "$.selected_case_id"),
        solution=solution,
        ranking=ranking,
        mode=mode,
        corrections_applied=corrections,
    )

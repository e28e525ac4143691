"""Command-line surface for the diagnosis engine.

Three commands over a case-base document: `validate` reports semantic
violations, `query` runs retrieval (optionally followed by adaptation), and
`explain` prints the per-descriptor score breakdown for one target/source
pair. Results go to standard output, diagnostics to standard error.

Exit codes: 0 success, 1 validation or domain error, 2 I/O or document
syntax error, 3 configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import codec
from .cases import Case, CaseBase, CaseKind, validate_case
from .errors import (
    ConfigurationError,
    DocumentSyntaxError,
    DocumentValidationError,
    FuzzyDomainError,
    MissingProfileError,
    UnknownLabelError,
)
from .measures import ScoringContext, ScoringMode, adaptation_measure, retrieval_measure
from .pipeline import DiagnosisOutcome, _retrieve, diagnose, prepare_target

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_CONFIG = 3


class _Failure(Exception):
    """Terminate the running command with a specific exit code."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _Failure(EXIT_IO, f"cannot read {path!r}: {exc}") from None


def _load_case_base(path: str) -> CaseBase:
    return codec.decode_case_base(_read_text(path))


def _parse_mode(raw: str) -> ScoringMode:
    for mode in ScoringMode:
        if raw == mode.value:
            return mode
    raise _Failure(EXIT_CONFIG, f"unknown mode {raw!r}, expected 'typical' or 'enhanced'")


def _resolve_target(raw: Optional[str], case_base: CaseBase) -> Case:
    """Find the target case: a case id, a path to a separate document, or
    the case base's own unique target when omitted. A case id wins over a
    file of the same name."""
    if raw is None:
        targets = case_base.targets()
        if len(targets) != 1:
            raise _Failure(
                EXIT_INVALID,
                f"case base contains {len(targets)} target cases; pass --target",
            )
        return targets[0]
    if raw in case_base.cases:
        return case_base.cases[raw]
    if os.path.exists(raw):
        document = codec.decode_case_base(_read_text(raw), validate=False)
        targets = document.targets()
        if len(targets) != 1:
            raise _Failure(
                EXIT_INVALID,
                f"target document must contain exactly one target case, found {len(targets)}",
            )
        target = targets[0]
        violations = validate_case(target, case_base.taxonomy, case_base.profiles)
        if violations:
            raise DocumentValidationError(violations)
        return target
    raise _Failure(EXIT_INVALID, f"unknown target id {raw!r}")


def _cell(value: float) -> str:
    return format(value, ".6g")


def _render_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return lines


def cmd_validate(args: argparse.Namespace) -> int:
    text = _read_text(args.case_base)
    try:
        codec.decode_case_base(text)
    except DocumentValidationError as exc:
        for violation in exc.violations:
            print(violation)
        return EXIT_INVALID
    print("OK")
    return EXIT_OK


def _query_outcome(args: argparse.Namespace, case_base: CaseBase, target: Case) -> DiagnosisOutcome:
    mode = _parse_mode(args.mode)
    if args.adapt:
        if mode is not ScoringMode.ENHANCED:
            raise ConfigurationError("adaptation requires enhanced mode")
        return diagnose(target, case_base, top_k=args.top_k)
    return _retrieve(target, case_base, mode, args.top_k)


def _print_outcome_table(outcome: DiagnosisOutcome) -> None:
    print(f"mode: {outcome.mode.value}")
    for c in outcome.corrections_applied:
        print(f"corrected {c.descriptor_id}: {_cell(c.original)} -> {_cell(c.corrected)}")
    with_adaptation = any(sc.m_a is not None for sc in outcome.ranking)
    headers = ["rank", "case", "m_r"] + (["m_a"] if with_adaptation else [])
    rows = []
    for position, sc in enumerate(outcome.ranking, start=1):
        row = [str(position), sc.case_id, _cell(sc.m_r)]
        if with_adaptation:
            row.append("" if sc.m_a is None else _cell(sc.m_a))
        rows.append(row)
    for line in _render_table(headers, rows):
        print(line)
    if outcome.selected_case_id is not None:
        print(f"selected: {outcome.selected_case_id}")
        if outcome.solution is not None:
            print(f"solution: {outcome.solution.failing_component} / {outcome.solution.action}")


def cmd_query(args: argparse.Namespace) -> int:
    case_base = _load_case_base(args.case_base)
    target = _resolve_target(args.target, case_base)
    outcome = _query_outcome(args, case_base, target)
    if args.format == "machine":
        sys.stdout.write(codec.encode_outcome(outcome))
    else:
        _print_outcome_table(outcome)
    return EXIT_OK


def _print_breakdown(rows: list[dict], headers: list[str]) -> None:
    """Print encoded breakdown rows as a table, one column per field, the
    running sum last."""
    cells = [[cell if isinstance(cell, str) else _cell(cell) for cell in row.values()] for row in rows]
    for line in _render_table(headers, cells):
        print(line)


def cmd_explain(args: argparse.Namespace) -> int:
    case_base = _load_case_base(args.case_base)
    mode = _parse_mode(args.mode)
    target = _resolve_target(args.target, case_base)
    source = case_base.cases.get(args.source)
    if source is None:
        raise _Failure(EXIT_INVALID, f"unknown source id {args.source!r}")
    if source.kind is not CaseKind.SOURCE:
        raise _Failure(EXIT_INVALID, f"{args.source!r} is a {source.kind.value} case, not a source")

    ctx = ScoringContext(taxonomy=case_base.taxonomy, profiles=case_base.profiles, mode=mode)
    prepared, corrections = prepare_target(target, case_base.profiles)
    scored_target = prepared if mode is ScoringMode.ENHANCED else target
    retrieval = retrieval_measure(scored_target, source, ctx)
    adaptation = adaptation_measure(prepared, source, ctx)

    if args.format == "machine":
        sys.stdout.write(
            codec.encode_explanation(mode, target.id, source.id, corrections, retrieval, adaptation)
        )
        return EXIT_OK

    print(f"retrieval ({mode.value}): {target.id} vs {source.id}")
    for c in corrections:
        print(f"corrected {c.descriptor_id}: {_cell(c.original)} -> {_cell(c.corrected)}")
    _print_breakdown(
        codec.with_running_sums(retrieval.breakdown, "product"),
        ["descriptor", "phi_value", "phi_state", "phi_presence", "phi_om", "product", "running"],
    )
    print(f"M_R = {retrieval.score!r}")
    print("adaptation:")
    _print_breakdown(
        codec.with_running_sums(adaptation.breakdown, "term"),
        ["descriptor", "lambda", "phi_presence", "phi_value", "term", "running"],
    )
    print(f"M_A = {adaptation.score!r}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbrdiag",
        description="Case-based retrieval and diagnosis over imperfect equipment fault descriptors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a case-base document")
    p_validate.add_argument("--case-base", required=True, help="path to the case-base document")
    p_validate.set_defaults(handler=cmd_validate)

    p_query = sub.add_parser("query", help="rank source cases against a target")
    p_query.add_argument("--case-base", required=True, help="path to the case-base document")
    p_query.add_argument("--target", help="target case id or path to a target document")
    p_query.add_argument("--mode", default="enhanced", help="scoring mode: typical or enhanced")
    p_query.add_argument("--top-k", type=int, default=3, dest="top_k", help="cases kept after retrieval")
    p_query.add_argument("--adapt", action="store_true", help="follow retrieval with adaptation scoring")
    p_query.add_argument("--format", default="machine", help="output format: table or machine")
    p_query.set_defaults(handler=cmd_query)

    p_explain = sub.add_parser("explain", help="per-descriptor score breakdown for one pair")
    p_explain.add_argument("--case-base", required=True, help="path to the case-base document")
    p_explain.add_argument("--target", help="target case id or path to a target document")
    p_explain.add_argument("--source", required=True, help="source case id to compare against")
    p_explain.add_argument("--mode", default="enhanced", help="scoring mode: typical or enhanced")
    p_explain.add_argument("--format", default="machine", help="output format: table or machine")
    p_explain.set_defaults(handler=cmd_explain)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "format", "machine") not in ("table", "machine"):
        print(f"error: unknown format {args.format!r}, expected 'table' or 'machine'", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.handler(args)
    except _Failure as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except DocumentSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DocumentValidationError as exc:
        for violation in exc.violations:
            print(f"error: {violation}", file=sys.stderr)
        return EXIT_INVALID
    except (UnknownLabelError, FuzzyDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ConfigurationError, MissingProfileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

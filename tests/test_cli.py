"""End-to-end command tests driven through the argument parser.

Commands run in-process via main(argv); one test exercises the installed
console script to prove the entry point resolves.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cbrdiag import (
    DocumentValidationError,
    ScoringContext,
    ScoringMode,
    adaptation_measure,
    decode_outcome,
    encode_case_base,
    prepare_target,
    retrieval_measure,
)
from cbrdiag.cli import main
from strategies import case_bundles, single_field_mutations, top_ks, wide_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# Every command, mode and format on the bundled fixture, keyed by the name of
# the file under tests/golden/ that holds its expected standard output.
GOLDEN_RUNS = {
    "validate": ["validate"],
    "query-enhanced-machine": ["query"],
    "query-enhanced-table": ["query", "--format", "table"],
    "query-typical-machine": ["query", "--mode", "typical"],
    "query-typical-table": ["query", "--mode", "typical", "--format", "table"],
    "query-adapt-machine": ["query", "--adapt"],
    "query-adapt-table": ["query", "--adapt", "--format", "table"],
    **{
        f"explain-{source}-{mode}-{fmt}": [
            "explain", "--source", source, "--mode", mode, "--format", fmt
        ]
        for source in ("source1", "source3")
        for mode in ("enhanced", "typical")
        for fmt in ("machine", "table")
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_cli_output_matches_golden(capsys, fixture_path, name):
    command, *options = GOLDEN_RUNS[name]
    code, out, err = run_cli(capsys, command, "--case-base", fixture_path, *options)
    assert (code, err) == (0, "")
    with open(os.path.join(GOLDEN_DIR, f"{name}.txt"), "rb") as handle:
        assert out.encode("utf-8") == handle.read()


def test_validate_fixture(capsys, fixture_path):
    code, out, err = run_cli(capsys, "validate", "--case-base", fixture_path)
    assert code == 0
    assert out == "OK\n"
    assert err == ""


def test_validate_empty_document(capsys, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    code, out, err = run_cli(capsys, "validate", "--case-base", str(empty))
    assert code == 2


def test_validate_missing_file(capsys, tmp_path):
    code, out, err = run_cli(capsys, "validate", "--case-base", str(tmp_path / "absent.json"))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe{}", "cannot read"),
        (b"[" * 200_000, "document is not valid JSON"),
        (b'{"format_version": 1' + b"0" * 5000 + b"}", "document is not valid JSON"),
        (
            b'{"format_version": 1, "taxonomy": [{"name": "root\\ud800", "parent": null}],'
            b' "fuzzy_profiles": [], "cases": []}',
            "$.taxonomy[0].name: expected a string UTF-8 can encode, got 'root\\ud800'",
        ),
    ],
    ids=["not-utf-8", "deep", "long-integer", "lone-surrogate"],
)
def test_validate_unreadable_document_exits_2(capsys, tmp_path, content, message):
    path = tmp_path / "hostile.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "validate", "--case-base", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_validate_missing_profile(capsys, tmp_path, fixture_text):
    doc = json.loads(fixture_text)
    doc["fuzzy_profiles"] = []
    path = tmp_path / "unprofiled.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", "--case-base", str(path))
    assert code == 1
    assert "fuzzy profile" in out


def _write_fixture_variant(tmp_path, fixture_text, edit) -> str:
    doc = json.loads(fixture_text)
    edit(doc)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_validate_numeric_outside_profile_domain(capsys, tmp_path, fixture_text):
    def edit(doc):
        assert doc["cases"][2]["descriptors"][2]["id"] == "ds3"
        doc["cases"][2]["descriptors"][2]["value"]["numeric"] = 150.0

    path = _write_fixture_variant(tmp_path, fixture_text, edit)
    violation = "$.cases[2]: source3/ds3: value 150.0 for descriptor 'ds3' outside domain [0.0, 100.0]"
    assert run_cli(capsys, "validate", "--case-base", path) == (1, violation + "\n", "")
    assert run_cli(capsys, "query", "--case-base", path) == (1, "", f"error: {violation}\n")


def test_validate_rejects_a_profile_whose_span_overflows(capsys, tmp_path, fixture_text):
    # Typical closeness divides by the span: an infinite one would score
    # magnitudes at opposite ends of the domain as identical.
    def edit(doc):
        doc["fuzzy_profiles"][0].update(domain_lower=-1.7e308, domain_upper=1.7e308)
        assert doc["cases"][3]["descriptors"][3]["id"] == "ds3"
        doc["cases"][3]["descriptors"][3]["value"]["numeric"] = -1.7e308
        assert doc["cases"][1]["descriptors"][2]["id"] == "ds3"
        doc["cases"][1]["descriptors"][2]["value"]["numeric"] = 1.7e308

    path = _write_fixture_variant(tmp_path, fixture_text, edit)
    code, out, err = run_cli(capsys, "validate", "--case-base", path)
    assert (code, err) == (1, "")
    assert out.splitlines()[0] == "$.fuzzy_profiles[0]: profile 'ds3': domain span inf is not finite"
    code, out, err = run_cli(capsys, "explain", "--case-base", path, "--source", "source2", "--mode", "typical")
    assert (code, out) == (1, "")


def test_validate_numeric_without_profile(capsys, tmp_path, fixture_text):
    def edit(doc):
        dx = {"id": "dx", "name": "dx", "value": {"numeric": 1.0, "unit": "bar"}}
        for case in doc["cases"]:
            if case["id"] in ("source2", "target"):
                case["descriptors"].append(dx)

    path = _write_fixture_variant(tmp_path, fixture_text, edit)
    violations = [
        "$.cases[1]: source2/dx: numeric descriptor has no fuzzy profile",
        "$.cases[3]: target/dx: numeric descriptor has no fuzzy profile",
    ]
    report = "".join(v + "\n" for v in violations)
    assert run_cli(capsys, "validate", "--case-base", path) == (1, report, "")
    code, out, err = run_cli(capsys, "query", "--case-base", path)
    assert (code, err.splitlines()) == (1, [f"error: {v}" for v in violations])


def test_query_typical_table(capsys, fixture_path):
    code, out, err = run_cli(
        capsys,
        "query",
        "--case-base",
        fixture_path,
        "--mode",
        "typical",
        "--format",
        "table",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mode: typical"
    ranked = [line.split()[1] for line in lines if line and line.split()[0] in "123"]
    assert ranked == ["source2", "source3", "source1"]


def test_query_adapt_selects_source3(capsys, fixture_path):
    code, out, err = run_cli(
        capsys, "query", "--case-base", fixture_path, "--adapt", "--format", "table"
    )
    assert code == 0
    assert "selected: source3" in out
    assert "solution: Turbo comp. / Overhaul the turbo compressor bearings" in out


def test_query_machine_adapt(capsys, fixture_path):
    code, out, err = run_cli(capsys, "query", "--case-base", fixture_path, "--adapt")
    assert code == 0
    outcome = decode_outcome(out)
    assert outcome.selected_case_id == "source3"
    selected = [sc for sc in outcome.ranking if sc.case_id == "source3"][0]
    assert selected.m_a == 2.0
    assert [(c.descriptor_id, c.original, c.corrected) for c in outcome.corrections_applied] == [
        ("ds3", 95.0, 100.0)
    ]


def test_query_top_k_one(capsys, fixture_path):
    code, out, err = run_cli(
        capsys,
        "query",
        "--case-base",
        fixture_path,
        "--mode",
        "typical",
        "--top-k",
        "1",
    )
    assert code == 0
    outcome = decode_outcome(out)
    assert [sc.case_id for sc in outcome.ranking] == ["source2"]


def test_query_machine_output_is_stable(capsys, fixture_path):
    _, first, _ = run_cli(capsys, "query", "--case-base", fixture_path, "--adapt")
    _, second, _ = run_cli(capsys, "query", "--case-base", fixture_path, "--adapt")
    assert first == second


def test_query_target_as_document_matches_target_as_id(capsys, tmp_path, fixture_path, fixture_text):
    doc = json.loads(fixture_text)
    doc["cases"] = [c for c in doc["cases"] if c["kind"] == "target"]
    target_doc = tmp_path / "target_only.json"
    target_doc.write_text(json.dumps(doc))
    _, by_id, _ = run_cli(
        capsys, "query", "--case-base", fixture_path, "--target", "target", "--adapt"
    )
    _, by_path, _ = run_cli(
        capsys, "query", "--case-base", fixture_path, "--target", str(target_doc), "--adapt"
    )
    assert by_id == by_path


def test_target_id_wins_over_a_path(capsys, tmp_path, fixture_text):
    # "." names a directory wherever the command runs; as a case id of the
    # loaded base it must still select that case.
    def edit(doc):
        target = next(c for c in doc["cases"] if c["kind"] == "target")
        doc["cases"].append({**target, "id": "."})

    path = _write_fixture_variant(tmp_path, fixture_text, edit)
    assert run_cli(capsys, "validate", "--case-base", path) == (0, "OK\n", "")
    code, by_dot, err = run_cli(capsys, "query", "--case-base", path, "--target", ".", "--adapt")
    assert (code, err) == (0, "")
    assert by_dot == run_cli(capsys, "query", "--case-base", path, "--target", "target", "--adapt")[1]


# The outcome of a case base whose only case is the target: nothing ranked,
# nothing selected, the correction log kept.
EMPTY_RANKING_OUTCOME = """\
{
  "corrections_applied": [
    {
      "corrected": 100.0,
      "descriptor_id": "ds3",
      "original": 95.0
    }
  ],
  "format_version": 1,
  "mode": "enhanced",
  "ranking": [],
  "selected_case_id": null,
  "solution": null
}
"""


@pytest.mark.parametrize("options", [[], ["--adapt"]])
def test_query_without_sources_prints_empty_outcome(capsys, tmp_path, fixture_text, options):
    def edit(doc):
        doc["cases"] = [c for c in doc["cases"] if c["kind"] == "target"]

    path = _write_fixture_variant(tmp_path, fixture_text, edit)
    assert run_cli(capsys, "query", "--case-base", path, *options) == (0, EMPTY_RANKING_OUTCOME, "")


def test_explain_source1_typical_table(capsys, fixture_path):
    code, out, err = run_cli(
        capsys,
        "explain",
        "--case-base",
        fixture_path,
        "--source",
        "source1",
        "--mode",
        "typical",
        "--format",
        "table",
    )
    assert code == 0
    lines = out.splitlines()
    retrieval_rows = []
    for line in lines:
        if line.startswith("M_R"):
            break
        if line.startswith("ds"):
            retrieval_rows.append(line.split()[0])
    assert retrieval_rows == ["ds1", "ds11", "ds5", "ds7"]
    assert "M_R = 0.5" in out


def test_explain_source3_adaptation_row(capsys, fixture_path):
    code, out, err = run_cli(
        capsys,
        "explain",
        "--case-base",
        fixture_path,
        "--source",
        "source3",
        "--format",
        "table",
    )
    assert code == 0
    retrieval_part, adaptation_part = out.split("adaptation:")
    adaptation_rows = [
        line.split() for line in adaptation_part.splitlines() if line.startswith("ds")
    ]
    assert len(adaptation_rows) == 1
    assert adaptation_rows[0][0] == "ds9"
    assert adaptation_rows[0][1] == "2"
    assert "M_A = 2.0" in adaptation_part


def test_explain_clean_case_against_itself(capsys, fixture_path):
    code, out, err = run_cli(
        capsys,
        "explain",
        "--case-base",
        fixture_path,
        "--target",
        "source2",
        "--source",
        "source2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["m_r"] == 1.0
    for row in doc["retrieval_rows"]:
        assert row["phi_value"] == 1.0
        assert row["phi_state"] == 1
        assert row["phi_presence"] == 1
        assert row["phi_om"] == 1
        assert row["product"] == 1.0


def test_explain_totals_match_measures(capsys, fixture_path, engine_case_base):
    code, out, err = run_cli(
        capsys, "explain", "--case-base", fixture_path, "--source", "source1"
    )
    assert code == 0
    doc = json.loads(out)
    prepared, _ = prepare_target(
        engine_case_base.cases["target"], engine_case_base.profiles
    )
    ctx = ScoringContext(
        taxonomy=engine_case_base.taxonomy,
        profiles=engine_case_base.profiles,
        mode=ScoringMode.ENHANCED,
    )
    retrieval = retrieval_measure(prepared, engine_case_base.cases["source1"], ctx)
    adaptation = adaptation_measure(prepared, engine_case_base.cases["source1"], ctx)
    assert doc["m_r"] == retrieval.score
    assert doc["m_a"] == adaptation.score
    assert doc["retrieval_rows"][-1]["running_sum"] == sum(
        row.product for row in retrieval.breakdown
    )


def test_unknown_mode_exits_3(capsys, fixture_path):
    code, _, err = run_cli(
        capsys, "query", "--case-base", fixture_path, "--mode", "bogus"
    )
    assert code == 3
    assert "unknown mode" in err


def test_unknown_target_exits_1(capsys, fixture_path):
    code, _, err = run_cli(
        capsys, "query", "--case-base", fixture_path, "--target", "nonexistent"
    )
    assert code == 1
    assert "unknown target id" in err


def test_unknown_source_exits_1(capsys, fixture_path):
    code, _, err = run_cli(
        capsys, "explain", "--case-base", fixture_path, "--source", "nonexistent"
    )
    assert code == 1
    assert "unknown source id" in err


def test_explain_rejects_a_target_as_source(capsys, fixture_path):
    code, out, err = run_cli(
        capsys, "explain", "--case-base", fixture_path, "--source", "target"
    )
    assert (code, out) == (1, "")
    assert err == "error: 'target' is a target case, not a source\n"


def test_unsupported_version_exits_2(capsys, tmp_path, fixture_text):
    doc = json.loads(fixture_text)
    doc["format_version"] = 99
    path = tmp_path / "future.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "query", "--case-base", str(path))
    assert code == 2


def test_bool_version_fails_validate_with_exit_2(capsys, tmp_path, fixture_text):
    doc = json.loads(fixture_text)
    doc["format_version"] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", "--case-base", str(path))
    assert (code, out) == (2, "")
    assert err == "error: $.format_version: unsupported version True, expected 1\n"


def test_nonpositive_top_k_exits_3(capsys, fixture_path):
    code, _, err = run_cli(
        capsys, "query", "--case-base", fixture_path, "--top-k", "0"
    )
    assert code == 3


def test_bad_format_exits_3(capsys, fixture_path):
    code, _, err = run_cli(
        capsys, "query", "--case-base", fixture_path, "--format", "xml"
    )
    assert code == 3
    assert "unknown format" in err


def test_typical_adapt_exits_3(capsys, fixture_path):
    code, _, err = run_cli(
        capsys,
        "query",
        "--case-base",
        fixture_path,
        "--mode",
        "typical",
        "--adapt",
    )
    assert code == 3
    assert "adaptation requires enhanced mode" in err


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_console_script(fixture_path):
    script = shutil.which("cbrdiag")
    argv = [script] if script else [sys.executable, "-m", "cbrdiag.cli"]
    result = subprocess.run(
        argv + ["validate", "--case-base", fixture_path],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "OK\n"


def _run_main_as_bytes(argv: list[str]) -> tuple[int, str, str]:
    """Run main in-process with stdout and stderr as strict UTF-8 byte
    streams, as a pipe or file would be, so text they cannot encode raises."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
        out.flush()
        err.flush()
    return code, out.buffer.getvalue().decode("utf-8"), err.buffer.getvalue().decode("utf-8")


def _run_checked(argv: list[str]) -> int:
    code, out, err = _run_main_as_bytes(argv)
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err == ""
    else:
        assert all(line.startswith("error: ") for line in err.splitlines())
        # validate reports violations on stdout; every other failure only
        # on stderr.
        if argv[0] != "validate" or code != 1:
            assert out == ""
            assert err != ""
    return code


@given(st.data())
def test_cli_is_total(fixture_text, data):
    # Generated case bases, and single-field mutations of them or of the
    # fixture, with strings from all of Unicode: every command exits 0-3 and
    # prints only error lines when it fails. A case base that validates
    # answers every query and explanation.
    bundle = data.draw(st.booleans())
    if bundle:
        case_base, _ = data.draw(case_bundles(valid=data.draw(st.booleans())))
        try:
            document = json.loads(encode_case_base(case_base))
        except DocumentValidationError:
            # The base holds a field of a type no document can hold.
            bundle = False
    if not bundle:
        document = json.loads(fixture_text)
    if data.draw(st.booleans()):
        # Every command echoes case ids.
        cases = document["cases"]
        cases[data.draw(st.integers(0, len(cases) - 1))]["id"] = data.draw(wide_text())
    if not bundle or data.draw(st.booleans()):
        document = data.draw(single_field_mutations(document))
    # The ids as the CLI reads them from the file: json.dump escapes a
    # surrogate pair, and decoding joins it into one character.
    document = json.loads(json.dumps(document))
    fmt = data.draw(st.sampled_from(["machine", "table"]))
    mode = data.draw(st.sampled_from(["enhanced", "typical"]))
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "case_base.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        valid = _run_checked(["validate", "--case-base", path]) == 0
        targets = sources = []
        if valid:
            targets = [c["id"] for c in document["cases"] if c["kind"] == "target"]
            sources = [c["id"] for c in document["cases"] if c["kind"] == "source"]
        # An id never reads as an option in --name=value.
        chosen = [f"--target={targets[0]}"] if targets else []
        base = ["--case-base", path, "--format", fmt, *chosen]
        top_k = ["--top-k", str(data.draw(top_ks()))]
        codes = [
            _run_checked(["query", *base, *top_k, "--mode", "enhanced"]),
            _run_checked(["query", *base, *top_k, "--mode", "typical"]),
            _run_checked(["query", *base, *top_k, "--adapt"]),
        ]
        if sources or not valid:
            source = sources[0] if sources else "source1"
            codes.append(_run_checked(["explain", *base, f"--source={source}", "--mode", mode]))
    if targets:
        assert codes == [0] * len(codes)

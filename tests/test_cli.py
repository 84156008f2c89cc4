"""Command-line surface: exit codes, canonical output, chain/verify round trip."""

import contextlib
import copy
import functools
import hashlib
import io
import json
import operator
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cuspchain
from cuspchain import chains, serialize
from cuspchain.cli import COMMANDS, Group, main
from cuspchain.exact import Matrix, QuadFieldElement
from cuspchain.forms import canonical_subspace, line, standard_symplectic, unit_vector

from support import (
    orthogonal_test_space,
    plain_json,
    random_orthogonal_isometry,
    random_symplectic_isometry,
    random_unitary_isometry,
    standard_isotropic,
    transform_subspace,
    unitary_test_space,
)


def write(path, payload):
    path.write_text(serialize.dumps_canonical(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def symplectic_files(tmp_path):
    space = standard_symplectic(2)
    files = {
        "space": write(
            tmp_path / "space.json", serialize.form_space_to_json(space)
        ),
        "i1": write(
            tmp_path / "i1.json",
            serialize.subspace_to_json(line(space, unit_vector(space, 0))),
        ),
        "i2": write(
            tmp_path / "i2.json",
            serialize.subspace_to_json(line(space, unit_vector(space, 1))),
        ),
    }
    return files


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze(symplectic_files, capsys):
    code, out, err = run(capsys, ["analyze", "--space", symplectic_files["space"]])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["kind"] == "alternating"
    assert payload["dim"] == 4
    assert payload["signature"] is None
    assert payload["isotropic"] == ["1", "0", "0", "0"]


def test_analyze_orthogonal_signature(tmp_path, capsys):
    from cuspchain.forms import quadratic_2u_perp_diagonal

    space_file = write(
        tmp_path / "orth.json",
        serialize.form_space_to_json(quadratic_2u_perp_diagonal([-2])),
    )
    code, out, _ = run(capsys, ["analyze", "--space", space_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["signature"] == [2, 3, 0]


def test_analyze_plain_2u(tmp_path, capsys):
    from cuspchain.forms import standard_2u

    space_file = write(
        tmp_path / "2u.json", serialize.form_space_to_json(standard_2u())
    )
    code, out, _ = run(capsys, ["analyze", "--space", space_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "symmetric"
    assert payload["signature"] == [2, 2, 0]
    assert payload["isotropic"] is not None


def test_search_exhausted_exit_code(tmp_path, capsys):
    # U perp [[-2, 5], [5, -12]]: the smallest positive vector orthogonal to
    # both lines is (5, 2) in the complement, beyond a height cap of 4
    space_payload = {
        "kind": "symmetric",
        "gram": [
            ["0", "1", "0", "0"],
            ["1", "0", "0", "0"],
            ["0", "0", "-2", "5"],
            ["0", "0", "5", "-12"],
        ],
    }
    space_file = write(tmp_path / "space.json", space_payload)
    i1 = write(tmp_path / "i1.json", {"basis": [["1", "0", "0", "0"]]})
    i2 = write(tmp_path / "i2.json", {"basis": [["0", "1", "0", "0"]]})
    argv = ["chain", "--space", space_file, "--i1", i1, "--i2", i2]
    code, out, err = run(capsys, argv + ["--max-height", "4"])
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "SearchExhausted"
    # the detail says how far the search got: 8 + 8 + 16 + 16 primitive
    # candidates in shells 1-4 of the 2-dimensional complement
    detail = json.loads(err)["detail"]
    assert "48 candidates tried" in detail
    assert "last shell reached 4" in detail
    # with the default cap the build goes through
    code, out, err = run(capsys, argv)
    assert code == 0
    cert = json.loads(out)
    assert cert["links"][0]["type"] == "orth_interior_curve"
    assert cert["links"][0]["vector"] == ["0", "0", "5", "2"]


def test_isotropic_none_found(tmp_path, capsys):
    space_file = write(
        tmp_path / "aniso.json",
        {"kind": "symmetric", "gram": [["1", "0"], ["0", "-3"]]},
    )
    code, out, _ = run(
        capsys, ["isotropic", "--space", space_file, "--max-height", "10"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"found": False, "max_height": 10, "vector": None}


NO_ZERO_ANALYZE = (
    '{\n  "dim": %d,\n  "isotropic": null,\n  "kind": "symmetric",\n'
    '  "signature": [\n    %d,\n    1,\n    0\n  ]\n}\n'
)
NO_ZERO_ISOTROPIC = '{\n  "found": false,\n  "max_height": %d,\n  "vector": null\n}\n'


@pytest.mark.parametrize("gram, cap", [
    ([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-3"]], None),
    ([["1", "0"], ["0", "-3"]], "50"),
], ids=["ternary", "binary"])
def test_anisotropic_space_answers_null_without_a_search(gram, cap, tmp_path, capsys):
    # x^2 + y^2 - 3z^2 walked every shell up to the default cap 50 (0.27 s)
    # before its answer was decided exactly
    space_file = write(tmp_path / "aniso.json", {"kind": "symmetric", "gram": gram})
    dim = len(gram)
    cap_args = [] if cap is None else ["--max-height", cap]
    for command, expected in (
        ("analyze", NO_ZERO_ANALYZE % (dim, dim - 1)),
        ("isotropic", NO_ZERO_ISOTROPIC % 50),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, [command, "--space", space_file, *cap_args])
        assert time.perf_counter() - start < 0.1
        assert (code, out, err) == (0, expected, "")


def test_chain_verify_round_trip(symplectic_files, tmp_path, capsys):
    cert_path = str(tmp_path / "cert.json")
    code, out, err = run(
        capsys,
        [
            "chain",
            "--space",
            symplectic_files["space"],
            "--i1",
            symplectic_files["i1"],
            "--i2",
            symplectic_files["i2"],
            "--out",
            cert_path,
        ],
    )
    assert code == 0 and out == "" and err == ""
    code, out, err = run(capsys, ["verify", "--cert", cert_path])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_chain_determinism(symplectic_files, capsys):
    argv = [
        "chain",
        "--space",
        symplectic_files["space"],
        "--i1",
        symplectic_files["i1"],
        "--i2",
        symplectic_files["i2"],
    ]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_corrupted_certificate(symplectic_files, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    run(
        capsys,
        [
            "chain",
            "--space",
            symplectic_files["space"],
            "--i1",
            symplectic_files["i1"],
            "--i2",
            symplectic_files["i2"],
            "--out",
            str(cert_path),
        ],
    )
    payload = json.loads(cert_path.read_text())
    payload["nodes"][0]["basis"][0][2] = "1"  # no longer matches the split span
    cert_path.write_text(json.dumps(payload))
    code, out, err = run(capsys, ["verify", "--cert", str(cert_path)])
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["failures"]
    assert all("condition" in f for f in report["failures"])


def test_input_error_has_empty_stdout(tmp_path, capsys):
    code, out, err = run(capsys, ["analyze", "--space", str(tmp_path / "nope.json")])
    assert code == 2
    assert out == ""
    diagnosis = json.loads(err)
    assert diagnosis["error"] == "InputFormatError"


def test_malformed_space_rejected(tmp_path, capsys):
    space_file = write(
        tmp_path / "bad.json", {"kind": "symmetric", "gram": [["1", "1"]]}
    )
    code, out, err = run(capsys, ["analyze", "--space", space_file])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InputFormatError"


def test_exponent_notation_is_refused_at_once(tmp_path, capsys):
    # Fraction(str) would expand the exponent: about 33 s for this gram
    space_file = write(
        tmp_path / "space.json",
        {"kind": "symmetric", "gram": [["1e30000000", "0"], ["0", "-1"]]},
    )
    for argv in (
        ["analyze", "--space", space_file],
        ["demo", "veronese", "--tau", "1e30000000"],
        ["demo", "segre", "--tau1", "1", "--tau2", "2E30000000"],
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "InputFormatError"
        assert "bad rational" in json.loads(err)["detail"]


def test_deeply_nested_json_is_input_error(tmp_path, capsys):
    deep = "[" * 5000 + "]" * 5000
    cert = tmp_path / "cert.json"
    cert.write_text(
        '{"format": 1, "kind": "symplectic", "ambient": %s, "nodes": [], "links": []}'
        % deep,
        encoding="utf-8",
    )
    deep = "[" * 3000 + "]" * 3000
    space = tmp_path / "space.json"
    space.write_text('{"kind": "symmetric", "gram": [[%s]]}' % deep, encoding="utf-8")
    for argv in (["verify", "--cert", str(cert)], ["analyze", "--space", str(space)]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "InputFormatError"


SPACE_TEXT = '{\n  "gram": [["0", "1"], ["-1", "0"]],\n  "kind": "alternating"\n}\n'
# Input files read as bytes and decoded as UTF-8: what each encoding problem
# reports.  A syntax error's position counts "\r\n" as one character and a
# lone "\r" as a newline, as a text-mode reading does.
ENCODING_CASES = {
    "bom": (
        b"\xef\xbb\xbf" + SPACE_TEXT.encode(),
        "InputFormatError",
        "{path} is not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig):"
        " line 1 column 1 (char 0)",
    ),
    "invalid-utf8": (
        b'{"kind": "\xff"}\n',
        "UnicodeDecodeError",
        "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte",
    ),
    "utf16": (
        SPACE_TEXT.encode("utf-16"),
        "UnicodeDecodeError",
        "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    ),
    "crlf-syntax-error": (
        SPACE_TEXT.replace("\n", "\r\n").replace('"gram":', '"gram"').encode(),
        "InputFormatError",
        "{path} is not valid JSON: Expecting ':' delimiter: line 2 column 10 (char 11)",
    ),
    "cr-syntax-error": (
        SPACE_TEXT.replace("\n", "\r").replace('"gram":', '"gram"').encode(),
        "InputFormatError",
        "{path} is not valid JSON: Expecting ':' delimiter: line 2 column 10 (char 11)",
    ),
}


@pytest.mark.parametrize("case", ENCODING_CASES)
def test_undecodable_input_is_one_diagnosis(case, tmp_path, capsys):
    data, error, detail = ENCODING_CASES[case]
    path = tmp_path / f"{case}.json"
    path.write_bytes(data)
    code, out, err = run(capsys, ["analyze", "--space", str(path)])
    assert (code, out) == (2, "")
    expected = {"detail": detail.format(path=path), "error": error}
    assert err == json.dumps(expected, indent=2) + "\n"


@pytest.mark.parametrize("d", [3.7, True])
def test_non_integer_field_parameter_is_input_error(tmp_path, capsys, d):
    space_file = write(
        tmp_path / "space.json", {"kind": "hermitian", "gram": [["1"]], "D": d}
    )
    code, out, err = run(capsys, ["analyze", "--space", space_file])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InputFormatError"


def test_non_isotropic_input_is_input_error(tmp_path, capsys):
    from cuspchain.forms import quadratic_2u_perp_diagonal

    space = quadratic_2u_perp_diagonal([-2])
    space_file = write(tmp_path / "s.json", serialize.form_space_to_json(space))
    bad = write(tmp_path / "bad.json", {"basis": [["1", "1", "0", "0", "0"]]})
    good = write(tmp_path / "good.json", {"basis": [["1", "0", "0", "0", "0"]]})
    code, out, err = run(
        capsys,
        ["chain", "--space", space_file, "--i1", bad, "--i2", good],
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "NotIsotropic"


def test_bad_search_bounds_rejected(symplectic_files, capsys):
    code, out, err = run(
        capsys,
        [
            "isotropic",
            "--space",
            symplectic_files["space"],
            "--max-height",
            "0",
        ],
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InputFormatError"


@pytest.mark.parametrize(
    "argv",
    [
        ["chain", "--bogus"],
        ["chain", "--space", "s.json", "--i1", "a.json", "--i2", "b.json", "--bogus"],
        ["chain", "--space", "s.json"],
        ["isotropic", "--space", "s.json", "--max-height", "many"],
        ["no-such-command"],
        [],
        ["chain", "--space", "s.json", "--i", "a.json", "--i2", "b.json"],
        ["verify", "--cert", "a.json", "--cert", "b.json"],
        ["verify", "--cert"],
        ["demo"],
        ["demo", "nope"],
        ["level", "--space", "s.json", "--lattice", "a.json",
         "--lattice-prime", "b.json", "--N", "x"],
    ],
)
def test_bad_command_line_is_input_error(argv, capsys):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "InputFormatError"
    assert payload["detail"]
    if "--bogus" in argv:
        # named even when required flags are missing as well
        assert "--bogus" in payload["detail"]


UNIT_MATRICES = [[["1", "0"], ["0", "0"]], [["0", "1"], ["0", "0"]],
                 [["0", "0"], ["1", "0"]], [["0", "0"], ["0", "1"]]]
ORDER_OF_BAD = ["demo", "order", "--lattice", "{bad}"]
LEVEL_OF_BAD = ["level", "--space", "{space}", "--lattice", "{bad}",
                "--lattice-prime", "{bad}", "--N", "1"]

# case: (text or JSON document of the file {bad}, argv, part of the detail);
# {space}, {i1} and {i2} are the symplectic_files, {dir} is a directory
INPUT_ERRORS = {
    "file-not-json": ("{", ["analyze", "--space", "{bad}"], "is not valid JSON"),
    "lattice-without-basis": ({}, LEVEL_OF_BAD, "a lattice must be an object with a basis"),
    "singular-lattice": ({"basis": [["1", "0", "0", "0"]] * 4}, LEVEL_OF_BAD,
                         "lattice basis is singular"),
    "order-without-matrices": ({}, ORDER_OF_BAD, "an order demo input needs a matrices list"),
    "order-of-three-matrices": ({"matrices": UNIT_MATRICES[:3]}, ORDER_OF_BAD,
                                "exactly four 2x2 matrices are required"),
    "help-with-a-value": ("", ["analyze", "--help=x"], "--help takes no value"),
    "out-is-a-directory": (
        "", ["chain", "--space", "{space}", "--i1", "{i1}", "--i2", "{i2}", "--out", "{dir}"],
        "cannot write",
    ),
    "order-of-3x3-matrices": ({"matrices": [[["1", "0", "0"]] * 3] * 4}, ORDER_OF_BAD,
                              "a matrix lattice needs four 2x2 matrices"),
    "order-of-dependent-matrices": ({"matrices": UNIT_MATRICES[:3] + UNIT_MATRICES[:1]},
                                    ORDER_OF_BAD, "matrix lattice basis is not full rank"),
    "space-not-an-object": ([], ["analyze", "--space", "{bad}"],
                            "a form space must be an object"),
    "link-not-an-object": (
        {"format": 1, "kind": "orthogonal", "nodes": [], "links": [1],
         "ambient": {"kind": "symmetric", "gram": [["1"]]}},
        ["verify", "--cert", "{bad}"], "a link must be an object",
    ),
    "unknown-form-kind": ({"kind": "quartic", "gram": [["1"]]},
                          ["analyze", "--space", "{bad}"], "unknown form kind 'quartic'"),
    "interior-curve-vector-not-a-list": (
        {"format": 1, "kind": "orthogonal", "nodes": [],
         "links": [{"type": "orth_interior_curve", "vector": "1"}],
         "ambient": {"kind": "symmetric", "gram": [["1"]]}},
        ["verify", "--cert", "{bad}"], "a vector must be a list of entries",
    ),
}


@pytest.mark.parametrize("case", INPUT_ERRORS)
def test_input_error_is_one_diagnosis(case, symplectic_files, tmp_path, capsys):
    text, argv, detail = INPUT_ERRORS[case]
    bad = tmp_path / "bad.json"
    bad.write_text(text if isinstance(text, str) else json.dumps(text), encoding="utf-8")
    paths = dict(symplectic_files, bad=str(bad), dir=str(tmp_path))
    code, out, err = run(capsys, [arg.format(**paths) for arg in argv])
    assert code == 2 and out == ""
    diagnosis = json.loads(err)
    assert diagnosis.keys() == {"error", "detail"}
    assert diagnosis["error"] == "InputFormatError"
    assert detail in diagnosis["detail"]


# singular lattice bases: every level and order input below is refused with
# exit 2, empty stdout and exactly this stderr
UNIT_ROWS = [["1", "0", "0", "0"], ["0", "1", "0", "0"],
             ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
SINGULAR_LEVEL_BASES = [
    [UNIT_ROWS[0]] * 4,
    UNIT_ROWS[:2] + [["1", "1", "0", "0"], UNIT_ROWS[3]],
    [["1/2", "0", "1", "0"], *UNIT_ROWS[1:3], ["-1", "0", "-2", "0"]],
    [["0", "0", "0", "0"], *UNIT_ROWS[1:]],
]
SINGULAR_ORDER_MATRICES = [
    UNIT_MATRICES[:3] + UNIT_MATRICES[:1],
    UNIT_MATRICES[:3] + [[["0", "0"], ["0", "0"]]],
    UNIT_MATRICES[:3] + [[["1", "-1/2"], ["3", "0"]]],
    [UNIT_MATRICES[1]] * 4,
]


def diagnosis_text(detail: str) -> str:
    return '{\n  "detail": ' + json.dumps(detail) + ',\n  "error": "InputFormatError"\n}\n'


@pytest.mark.parametrize("case", range(4))
def test_singular_lattices_exit_2_with_fixed_stderr(case, symplectic_files, tmp_path,
                                                    capsys):
    bad = write(tmp_path / "bad.json", {"basis": SINGULAR_LEVEL_BASES[case]})
    good = write(tmp_path / "good.json", {"basis": UNIT_ROWS})
    for lattice, lattice_prime in ((bad, good), (good, bad)):
        argv = ["level", "--space", symplectic_files["space"], "--lattice", lattice,
                "--lattice-prime", lattice_prime, "--N", "2"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == diagnosis_text(f"{bad}: lattice basis is singular")
    order = write(tmp_path / "order.json", {"matrices": SINGULAR_ORDER_MATRICES[case]})
    code, out, err = run(capsys, ["demo", "order", "--lattice", order])
    assert (code, out) == (2, "")
    assert err == diagnosis_text("matrix lattice basis is not full rank")


CALL_MAIN = (
    "-c", "import sys; from cuspchain.cli import main; sys.exit(main(sys.argv[1:]))"
)


def run_alone(argv, launch=CALL_MAIN):
    """(exit code, stdout, stderr) of the command in a fresh interpreter.

    ``launch`` holds the interpreter's arguments before the command's."""
    paths = [str(Path(cuspchain.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, *launch, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repeated_calls_match_single_runs(symplectic_files, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
    f = symplectic_files
    chain = ["chain", "--space", f["space"], "--i1", f["i1"], "--i2", f["i2"]]
    commands = [
        chain,
        ["chain", "--bogus"],
        ["analyze", "--space", f["space"], "--max-height", "2"],
        ["isotropic", "--space", f["space"], "--max-height", "many"],
        ["demo", "veronese", "--tau", "1/2"],
        ["chain", "--space", f["space"]],
        ["demo", "hermitian-m2", "--D", "2"],
        ["no-such-command"],
        ["chain", "--help"],
        chain + ["--bogus"],
    ]
    alone = [run_alone(argv) for argv in commands]
    assert [code for code, _, _ in alone] == [0, 2, 0, 2, 0, 2, 0, 2, 0, 2]
    for _ in range(2):
        for argv, expected in zip(commands, alone):
            assert run_in_process(capsys, argv) == expected, argv


def test_module_run_is_the_command(symplectic_files, capsys):
    # python -m cuspchain.cli runs the command, as the installed script does
    argv = ["analyze", "--space", symplectic_files["space"]]
    code, out, err = run_alone(argv, ("-m", "cuspchain.cli"))
    assert (code, out, err) == run_in_process(capsys, argv)
    assert code == 0 and out.startswith("{")
    code, out, err = run_alone(["analyze", "--bogus"], ("-m", "cuspchain.cli"))
    assert (code, out) == (2, "")
    assert json.loads(err).keys() == {"error", "detail"}


# cusp data that chain cannot join: (space, i1, i2, error, detail)
UNJOINABLE = {
    "line-and-plane": (
        {"kind": "alternating", "gram": [["0", "0", "1", "0"], ["0", "0", "0", "1"],
                                         ["-1", "0", "0", "0"], ["0", "-1", "0", "0"]]},
        {"basis": [["1", "0", "0", "0"]]},
        {"basis": [["1", "0", "0", "0"], ["0", "1", "0", "0"]]},
        "DimensionMismatch", "cusp data of dimensions 1 != 2",
    ),
    "signature-not-2-n": (
        {"kind": "symmetric", "gram": [["0", "1"], ["1", "0"]]},
        {"basis": [["1", "0"]]},
        {"basis": [["0", "1"]]},
        "SignatureMismatch", "need signature (2, n), got (1, 1, 0)",
    ),
}


@pytest.mark.parametrize("case", UNJOINABLE)
def test_unjoinable_cusp_data_is_one_diagnosis(case, tmp_path, capsys):
    space, i1, i2, error, detail = UNJOINABLE[case]
    argv = ["chain"]
    for name, doc in (("space", space), ("i1", i1), ("i2", i2)):
        argv += [f"--{name}", write(tmp_path / f"{name}.json", doc)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": error, "detail": detail}


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chain", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "[--max-height MAX-HEIGHT]  hard cap on search height (default 50)" in out


def table_rows(group=COMMANDS, words=()):
    """(command words, row) for every group and command of the table."""
    yield words, group
    for name, row in group.commands.items():
        if isinstance(row, Group):
            yield from table_rows(row, (*words, name))
        else:
            yield (*words, name), row


@pytest.mark.parametrize(
    "words,row", list(table_rows()), ids=[" ".join(w) or "-" for w, _ in table_rows()]
)
def test_help_lists_every_flag_of_each_row(words, row, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*words, "-h"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == "" and row.help in out
    if isinstance(row, Group):
        names = list(row.commands)
    else:
        names = [f"--{flag.name}" for flag in row.flags]
    assert all(name in out for name in names), (names, out)


def test_demo_trace_zero(capsys):
    code, out, _ = run(capsys, ["demo", "trace-zero"])
    assert code == 0
    payload = json.loads(out)
    assert payload["space"]["gram"] == [
        ["0", "1", "0"],
        ["1", "0", "0"],
        ["0", "0", "2"],
    ]
    assert payload["signature"] == [2, 1, 0]


def test_demo_veronese_and_segre(capsys):
    code, out, _ = run(capsys, ["demo", "veronese", "--tau", "1/2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["point"] == ["1", "-1/4", "1/2"]
    assert payload["norm"] == "0"
    code, out, _ = run(
        capsys, ["demo", "segre", "--tau1", "2", "--tau2", "1/3"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["point"] == ["1", "-2/3", "2", "1/3"]
    assert payload["norm"] == "0"


def test_negative_rational_values_are_taken_verbatim(capsys):
    code, out, err = run(capsys, ["demo", "veronese", "--tau", "-3/4"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["point"] == ["1", "-9/16", "-3/4"]
    assert payload["norm"] == "0"
    assert run(capsys, ["demo", "veronese", "--tau=-3/4"]) == (0, out, "")
    code, out, err = run(capsys, ["demo", "segre", "--tau1", "-2", "--tau2", "-1/3"])
    assert (code, err) == (0, "")
    assert json.loads(out)["norm"] == "0"


def test_demo_hermitian_m2(capsys):
    code, out, _ = run(capsys, ["demo", "hermitian-m2", "--D", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["signature"] == [1, 1, 0]
    assert payload["space"]["D"] == 3


def test_demo_order(tmp_path, capsys):
    lattice_file = write(
        tmp_path / "lat.json",
        {
            "matrices": [
                [["1", "0"], ["0", "0"]],
                [["0", "1"], ["0", "0"]],
                [["0", "0"], ["1", "0"]],
                [["0", "0"], ["0", "2"]],
            ]
        },
    )
    code, out, _ = run(capsys, ["demo", "order", "--lattice", lattice_file])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["order"]) == 4


def test_demo_order_field_element_is_input_error(tmp_path, capsys):
    root_two = {"a": "1", "b": "1", "D": 2}
    lattice_file = write(
        tmp_path / "lat.json",
        {"matrices": [[[root_two, "0"], ["0", "0"]], [["0", "1"], ["0", "0"]],
                      [["0", "0"], ["1", "0"]], [["0", "0"], ["0", "1"]]]},
    )
    code, out, err = run(capsys, ["demo", "order", "--lattice", lattice_file])
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "InputFormatError",
        "detail": "matrix lattice entries must be rational",
    }


@pytest.fixture
def level_files(tmp_path):
    from cuspchain.forms import hyperbolic_plane

    return {
        "space": write(
            tmp_path / "space.json",
            serialize.form_space_to_json(hyperbolic_plane()),
        ),
        "lattice": write(tmp_path / "a.json", {"basis": [["1", "0"], ["0", "1"]]}),
        "lattice_prime": write(
            tmp_path / "b.json", {"basis": [["1", "0"], ["0", "3"]]}
        ),
    }


def test_level_command(level_files, capsys):
    f = level_files
    code, out, _ = run(
        capsys,
        [
            "level",
            "--space",
            f["space"],
            "--lattice",
            f["lattice"],
            "--lattice-prime",
            f["lattice_prime"],
            "--N",
            "2",
        ],
    )
    assert code == 0
    assert json.loads(out) == {"N1": 2, "N2": 3, "Nprime": 6}


def test_accepted_spellings_give_identical_bytes(symplectic_files, level_files, capsys):
    analyze = ["analyze", "--space", symplectic_files["space"]]
    full = run(capsys, analyze + ["--max-height", "3"])
    assert full[0] == 0 and full[1]
    for spelling in (["--max=3"], ["--max", "3"], ["--max-height=3"]):
        assert run(capsys, analyze + spelling) == full, spelling
    f = level_files
    level = ["level", "--space", f["space"], "--lattice", f["lattice"], "--N", "2"]
    full = run(capsys, level + ["--lattice-prime", f["lattice_prime"]])
    assert full[0] == 0 and full[1]
    for spelling in (["--lattice-p", f["lattice_prime"]],
                     [f"--lattice-p={f['lattice_prime']}"]):
        assert run(capsys, level + spelling) == full, spelling


def test_every_command_writes_canonical_json(symplectic_files, tmp_path, capsys):
    from cuspchain.forms import hyperbolic_plane, quadratic_2u_perp_diagonal

    orth = quadratic_2u_perp_diagonal([-2])
    herm = unitary_test_space(3, 2)
    chain_inputs = [
        (symplectic_files["space"], symplectic_files["i1"], symplectic_files["i2"])
    ]
    for name, space, i1, i2 in (
        ("orth", orth, line(orth, unit_vector(orth, 0)),
         line(orth, unit_vector(orth, 2))),
        ("herm", herm, standard_isotropic(herm, 2, "e"),
         standard_isotropic(herm, 2, "f")),
    ):
        chain_inputs.append(tuple(
            write(tmp_path / f"{name}.{part}.json", doc)
            for part, doc in (
                ("space", serialize.form_space_to_json(space)),
                ("i1", serialize.subspace_to_json(i1)),
                ("i2", serialize.subspace_to_json(i2)),
            )
        ))
    plane = write(tmp_path / "plane.json", serialize.form_space_to_json(hyperbolic_plane()))
    lattice = write(tmp_path / "a.json", {"basis": [["1", "0"], ["0", "1"]]})
    lattice_prime = write(tmp_path / "b.json", {"basis": [["1", "0"], ["0", "3"]]})
    order = write(
        tmp_path / "order.json",
        {"matrices": [[["1", "0"], ["0", "0"]], [["0", "1"], ["0", "0"]],
                      [["0", "0"], ["1", "0"]], [["0", "0"], ["0", "2"]]]},
    )
    texts = []
    for k, (space, i1, i2) in enumerate(chain_inputs):
        code, cert, err = run(capsys, ["chain", "--space", space, "--i1", i1, "--i2", i2])
        assert code == 0 and err == ""
        cert_file = tmp_path / f"cert{k}.json"
        cert_file.write_text(cert, encoding="utf-8")
        code, report, err = run(capsys, ["verify", "--cert", str(cert_file)])
        assert code == 0 and err == ""
        texts += [cert, report]
    for argv in (
        ["analyze", "--space", chain_inputs[1][0]],
        ["isotropic", "--space", symplectic_files["space"]],
        ["level", "--space", plane, "--lattice", lattice,
         "--lattice-prime", lattice_prime, "--N", "2"],
        ["demo", "trace-zero"],
        ["demo", "veronese", "--tau", "1/2"],
        ["demo", "segre", "--tau1", "2", "--tau2", "1/3"],
        ["demo", "hermitian-m2", "--D", "3"],
        ["demo", "order", "--lattice", order],
    ):
        code, out, err = run(capsys, argv)
        assert code == 0 and out and err == "", argv
        texts.append(out)
    code, out, err = run(capsys, ["analyze", "--space", str(tmp_path / "missing.json")])
    assert code == 2 and out == "" and err
    texts.append(err)
    for text in texts:
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


# -- golden bytes of hermitian certificates -----------------------------------

HERMITIAN_SHAPES = [(1, ()), (1, (-1,)), (2, ()), (1, (-1, -2))]


def hermitian_instances():
    """(key, space, i1, i2) for each D, each hermitian shape and each rank."""
    for d in (1, 2, 3, 7):
        for copies, negatives in HERMITIAN_SHAPES:
            for rank in range(1, copies + 1):
                for seed in (0, 1):
                    rng = random.Random(1000 * d + 100 * copies + 10 * len(negatives)
                                        + 2 * rank + seed)
                    space = unitary_test_space(d, copies, negatives)
                    base = standard_isotropic(space, rank, "e")
                    i1, i2 = (
                        transform_subspace(
                            space,
                            random_unitary_isometry(space, rng, rng.randint(1, 3)),
                            base,
                        )
                        for _ in range(2)
                    )
                    key = f"D{d} copies{copies} neg{list(negatives)} rank{rank} s{seed}"
                    yield key, space, i1, i2


def chain_and_verify(tmp_path, capsys, instances) -> dict:
    """key -> (chain stdout, verify stdout) for each (key, space, i1, i2)."""
    out = {}
    for k, (key, space, i1, i2) in enumerate(instances):
        files = {
            name: write(tmp_path / f"{k}.{name}.json", doc)
            for name, doc in (
                ("space", serialize.form_space_to_json(space)),
                ("i1", serialize.subspace_to_json(i1)),
                ("i2", serialize.subspace_to_json(i2)),
            )
        }
        argv = ["chain", "--space", files["space"]]
        argv += ["--i1", files["i1"], "--i2", files["i2"]]
        code, chain_out, _ = run(capsys, argv)
        assert code == 0
        cert = tmp_path / f"{k}.cert.json"
        cert.write_text(chain_out, encoding="utf-8")
        code, verify_out, _ = run(capsys, ["verify", "--cert", str(cert)])
        assert code == 0
        out[key] = chain_out, verify_out
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# First 16 hex digits of the sha256 of each instance's `chain` stdout, and of
# the `verify` stdout every one of them gives (that of every passing
# certificate), recorded while hermitian matrices were still reduced entry by
# entry.
VERIFY_DIGEST = "80a05d2beed2e295"
HERMITIAN_GOLDEN = {
    "D1 copies1 neg[] rank1 s0": "2e5263f7867d8e9f",
    "D1 copies1 neg[] rank1 s1": "2e5263f7867d8e9f",
    "D1 copies1 neg[-1] rank1 s0": "9047e3bf5c69edc2",
    "D1 copies1 neg[-1] rank1 s1": "9047e3bf5c69edc2",
    "D1 copies2 neg[] rank1 s0": "c727fb6af20ac8c1",
    "D1 copies2 neg[] rank1 s1": "198dbf21624bdd93",
    "D1 copies2 neg[] rank2 s0": "c20a21cfe8b8c49e",
    "D1 copies2 neg[] rank2 s1": "c406c0af578146b8",
    "D1 copies1 neg[-1, -2] rank1 s0": "1148e46468ceb5fe",
    "D1 copies1 neg[-1, -2] rank1 s1": "acae7a02599122b1",
    "D2 copies1 neg[] rank1 s0": "740929ba550662bd",
    "D2 copies1 neg[] rank1 s1": "1ed7041dc3200c47",
    "D2 copies1 neg[-1] rank1 s0": "9433d622eb058b1a",
    "D2 copies1 neg[-1] rank1 s1": "9433d622eb058b1a",
    "D2 copies2 neg[] rank1 s0": "80afedd00d190e94",
    "D2 copies2 neg[] rank1 s1": "0e2681d6499a9971",
    "D2 copies2 neg[] rank2 s0": "4550ed4c7c17600e",
    "D2 copies2 neg[] rank2 s1": "a7b19352328f3873",
    "D2 copies1 neg[-1, -2] rank1 s0": "efa00f316f762bfe",
    "D2 copies1 neg[-1, -2] rank1 s1": "ddede8dc4f42870e",
    "D3 copies1 neg[] rank1 s0": "1bd9e98291c25794",
    "D3 copies1 neg[] rank1 s1": "bbd8d14741ab41e2",
    "D3 copies1 neg[-1] rank1 s0": "a406d11153bf73d4",
    "D3 copies1 neg[-1] rank1 s1": "c944c8d191eb55f3",
    "D3 copies2 neg[] rank1 s0": "96df0603fe49947f",
    "D3 copies2 neg[] rank1 s1": "96df0603fe49947f",
    "D3 copies2 neg[] rank2 s0": "883005e3f0d0c8f5",
    "D3 copies2 neg[] rank2 s1": "75ecb9dc0c22e142",
    "D3 copies1 neg[-1, -2] rank1 s0": "dc88320623e17ece",
    "D3 copies1 neg[-1, -2] rank1 s1": "a5da98e8cb7d39af",
    "D7 copies1 neg[] rank1 s0": "cc1d19db7f85046b",
    "D7 copies1 neg[] rank1 s1": "0057ce3645b6b733",
    "D7 copies1 neg[-1] rank1 s0": "5654fab9f79443f4",
    "D7 copies1 neg[-1] rank1 s1": "55c78a728640698b",
    "D7 copies2 neg[] rank1 s0": "9498aa1d211b2d33",
    "D7 copies2 neg[] rank1 s1": "9498aa1d211b2d33",
    "D7 copies2 neg[] rank2 s0": "f4dc0edb406e68df",
    "D7 copies2 neg[] rank2 s1": "c8bf254b75707024",
    "D7 copies1 neg[-1, -2] rank1 s0": "b0959579ac85e91a",
    "D7 copies1 neg[-1, -2] rank1 s1": "de1caef8f3d57923",
}


def test_hermitian_certificate_bytes_unchanged(tmp_path, capsys):
    outs = chain_and_verify(tmp_path, capsys, hermitian_instances())
    assert {k: digest(chain) for k, (chain, _) in outs.items()} == HERMITIAN_GOLDEN
    assert {digest(verify) for _, verify in outs.values()} == {VERIFY_DIGEST}


def symplectic_instances():
    """(key, space, i1, i2) for genus 2-6, each rank and two seeds."""
    for genus in range(2, 7):
        space = standard_symplectic(genus)
        for rank in range(1, genus + 1):
            base = standard_isotropic(space, rank, "e")
            for seed in (0, 1):
                rng = random.Random(100 * genus + 10 * rank + seed)
                i1, i2 = (
                    transform_subspace(
                        space,
                        random_symplectic_isometry(space, rng, rng.randint(2, 4)),
                        base,
                    )
                    for _ in range(2)
                )
                yield f"g{genus} rank{rank} s{seed}", space, i1, i2


def descent_depth(cert: dict) -> int:
    return max(
        (1 + descent_depth(link["sub"])
         for link in cert["links"] if link["type"] == "boundary_descent"),
        default=0,
    )


# First 16 hex digits of the sha256 of each instance's `chain` stdout and the
# descent depth of its certificate, recorded while `orthogonal_complement`
# still reduced each kernel a second time.
SYMPLECTIC_GOLDEN = {
    "g2 rank1 s0": ("15b6888c6189bb58", 0),
    "g2 rank1 s1": ("0a03dc2e923844d2", 0),
    "g2 rank2 s0": ("1a570acb4dce630e", 1),
    "g2 rank2 s1": ("2892bb07ca5cb3d1", 1),
    "g3 rank1 s0": ("52abd881dc569ed7", 0),
    "g3 rank1 s1": ("d71cc30c89973985", 0),
    "g3 rank2 s0": ("fc8a47f173f3d945", 1),
    "g3 rank2 s1": ("387b06d80b3a5cdd", 1),
    "g3 rank3 s0": ("fce66d7481fc10e6", 2),
    "g3 rank3 s1": ("705d0590aa5f1413", 2),
    "g4 rank1 s0": ("80a10609635551f5", 0),
    "g4 rank1 s1": ("20f7c68133183674", 0),
    "g4 rank2 s0": ("52e5e4f3cbdd97f7", 1),
    "g4 rank2 s1": ("8a783cac474f2708", 1),
    "g4 rank3 s0": ("fdc2528f1f88b077", 2),
    "g4 rank3 s1": ("b9e41f513e2b5222", 2),
    "g4 rank4 s0": ("21abc5083f9a2012", 3),
    "g4 rank4 s1": ("bfad171191e22181", 3),
    "g5 rank1 s0": ("f986b58e2401e5d4", 0),
    "g5 rank1 s1": ("d61d9dbbe8fc54d2", 0),
    "g5 rank2 s0": ("c208ed23a024fe18", 1),
    "g5 rank2 s1": ("0d7bd4b49c8eb682", 0),
    "g5 rank3 s0": ("60dd81ea32d5496f", 1),
    "g5 rank3 s1": ("52ef987e40344061", 2),
    "g5 rank4 s0": ("335155959d719bb3", 3),
    "g5 rank4 s1": ("9d4a8d8a7ab75b39", 3),
    "g5 rank5 s0": ("023aaf73f13d679f", 4),
    "g5 rank5 s1": ("cf7ed0ff0185a41d", 4),
    "g6 rank1 s0": ("33b44acf701458c9", 0),
    "g6 rank1 s1": ("27e8d79bb766cb7f", 0),
    "g6 rank2 s0": ("d3c40e3bfd485159", 1),
    "g6 rank2 s1": ("083529337eff973a", 1),
    "g6 rank3 s0": ("c3fcb9b2609a44c1", 2),
    "g6 rank3 s1": ("ed8f736e0e66f3d0", 2),
    "g6 rank4 s0": ("57ff45c2a872a4f3", 3),
    "g6 rank4 s1": ("75dce4cde52879e3", 1),
    "g6 rank5 s0": ("ea6f32dd4cf83ec9", 3),
    "g6 rank5 s1": ("7c4497485929c401", 3),
    "g6 rank6 s0": ("8e716e1f0fbf0717", 3),
    "g6 rank6 s1": ("714143bb28d55a8d", 4),
}


def test_symplectic_certificate_bytes_unchanged(tmp_path, capsys):
    outs = chain_and_verify(tmp_path, capsys, symplectic_instances())
    assert {
        k: (digest(chain), descent_depth(json.loads(chain)))
        for k, (chain, _) in outs.items()
    } == SYMPLECTIC_GOLDEN
    assert {digest(verify) for _, verify in outs.values()} == {VERIFY_DIGEST}


def orthogonal_instances():
    """(key, space, i1, i2): one pair per orthogonal link route, then random
    pairs of lines and of planes in 2U + <-2, ...>, two seeds each."""
    space = orthogonal_test_space([-2])

    def span(*indices):
        return canonical_subspace(space, Matrix([unit_vector(space, i) for i in indices]))

    yield "boundary plane", space, span(0), span(2)
    yield "interior curve", space, span(0), span(1)
    yield "2U isometry", space, span(0, 2), span(1, 3)
    yield "intersecting planes", space, span(0, 2), span(0, 3)
    for negatives in ([-2], [-2, -4], [-2, -4, -6]):
        space = orthogonal_test_space(negatives)
        for rank in (1, 2):
            base = canonical_subspace(
                space, Matrix([unit_vector(space, 2 * i) for i in range(rank)])
            )
            for seed in (0, 1):
                rng = random.Random(100 * len(negatives) + 10 * rank + seed)
                i1, i2 = (
                    transform_subspace(
                        space,
                        random_orthogonal_isometry(space, rng, rng.randint(1, 3)),
                        base,
                    )
                    for _ in range(2)
                )
                yield f"neg{negatives} rank{rank} s{seed}", space, i1, i2


# First 16 hex digits of the sha256 of each instance's `chain` stdout and the
# link types of its certificate (every orthogonal link type, and the
# three-link route between intersecting planes), recorded while the encoders
# still wrote interior-curve vectors as lists of "p/q" strings themselves.
ORTHOGONAL_GOLDEN = {
    "boundary plane": ("0774ee59ba67f5f5", ("orth_boundary_plane",)),
    "interior curve": ("9b01415ad13f3204", ("orth_interior_curve",)),
    "2U isometry": ("b569bdcf6cfd5148", ("orth_segre",)),
    "intersecting planes": ("34b131a1ee0358d1", ("orth_segre",) * 3),
    "neg[-2] rank1 s0": ("f24817f10360029b", ("orth_boundary_plane",)),
    "neg[-2] rank1 s1": ("b9be47ba40dc3715", ("orth_interior_curve",)),
    "neg[-2] rank2 s0": ("16392c3108fe9b04", ()),
    "neg[-2] rank2 s1": ("b4c34a4354937278", ("orth_segre",)),
    "neg[-2, -4] rank1 s0": ("ad164c9ec5295add", ("orth_boundary_plane",)),
    "neg[-2, -4] rank1 s1": ("be786efc099fe810", ("orth_interior_curve",)),
    "neg[-2, -4] rank2 s0": ("c2e584d659b9f10f", ("orth_segre",)),
    "neg[-2, -4] rank2 s1": ("56887c58b6453466", ("orth_segre",) * 3),
    "neg[-2, -4, -6] rank1 s0": ("97de72b123c5ec30", ("orth_boundary_plane",)),
    "neg[-2, -4, -6] rank1 s1": ("df93c775e9abd379", ("orth_interior_curve",)),
    "neg[-2, -4, -6] rank2 s0": ("bdffcfd10af634d5", ()),
    "neg[-2, -4, -6] rank2 s1": ("63590412fb851c74", ("orth_segre",)),
}


def test_orthogonal_certificate_bytes_unchanged(tmp_path, capsys):
    outs = chain_and_verify(tmp_path, capsys, orthogonal_instances())
    found = {
        k: (digest(chain), tuple(link["type"] for link in json.loads(chain)["links"]))
        for k, (chain, _) in outs.items()
    }
    assert found == ORTHOGONAL_GOLDEN
    assert {digest(verify) for _, verify in outs.values()} == {VERIFY_DIGEST}


def test_deep_boundary_descent_is_input_error(tmp_path, capsys):
    # 300 nested descents parse as JSON, but no certificate over a
    # 4-dimensional space can descend more than twice
    space = standard_symplectic(2)
    node = plain_json(serialize.subspace_to_json(line(space, unit_vector(space, 0))))
    ambient = plain_json(serialize.form_space_to_json(space))
    cert = {"format": 1, "kind": "symplectic", "ambient": ambient,
            "nodes": [node], "links": []}
    for _ in range(300):
        link = {"type": "boundary_descent", "sub": cert, "intersection": node,
                "lift": [], "project": []}
        cert = dict(cert, nodes=[node, node], links=[link])
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(cert), encoding="utf-8")
    code, out, err = run(capsys, ["verify", "--cert", str(cert_file)])
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "InputFormatError",
        "detail": "boundary descents nest deeper than half the ambient dimension",
    }


def test_demo_order_failed_self_check_is_named(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(Matrix, "is_integral", lambda self: False)
    lattice_file = write(
        tmp_path / "lat.json",
        {"matrices": [[["1", "0"], ["0", "0"]], [["0", "1"], ["0", "0"]],
                      [["0", "0"], ["1", "0"]], [["0", "0"], ["0", "1"]]]},
    )
    code, out, err = run(capsys, ["demo", "order", "--lattice", lattice_file])
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "PostconditionFailed",
        "detail": "order does not contain the identity",
    }


def test_analyze_eliminates_once(tmp_path, capsys, monkeypatch):
    from cuspchain import forms

    calls = []
    pivots = forms._congruent_pivots
    counted = lambda s: calls.append(1) or pivots(s)
    monkeypatch.setattr(forms, "_congruent_pivots", counted)
    space = forms.FormSpace("symmetric", Matrix([[1, 0, 0], [0, 1, 0], [0, 0, -3]]))
    space_file = write(tmp_path / "space.json", serialize.form_space_to_json(space))
    code, out, _ = run(capsys, ["analyze", "--space", space_file, "--max-height", "2"])
    assert code == 0
    assert json.loads(out)["signature"] == [2, 1, 0]
    assert len(calls) == 1


# -- field parameters and mixed fields in input ---------------------------------


def test_field_parameter_past_the_bound_is_refused_at_once(tmp_path, capsys):
    # 10**14 + 31 is squarefree; deciding that by trial division takes seconds
    space_file = write(
        tmp_path / "space.json",
        {"kind": "hermitian", "gram": [["1", "0"], ["0", "-1"]], "D": 10**14 + 31},
    )
    for argv in (
        ["analyze", "--space", space_file],
        ["demo", "hermitian-m2", "--D", str(10**14 + 31)],
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "InputFormatError"
        assert "2**32" in json.loads(err)["detail"]


def unitary_descent_certificate() -> dict:
    space = unitary_test_space(3, 2)
    cert = chains.build_chain_unitary(
        space, standard_isotropic(space, 2, "e"), standard_isotropic(space, 2, "f")
    )
    return plain_json(serialize.certificate_to_json(cert))


def test_mixed_fields_in_a_witness_are_an_input_error(tmp_path, capsys):
    payload = unitary_descent_certificate()
    lift = payload["links"][0]["lift"]
    lift[0][0] = {"a": "1", "b": "1", "D": 7}
    cert = write(tmp_path / "cert.json", payload)
    code, out, err = run(capsys, ["verify", "--cert", cert])
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "InputFormatError",
        "detail": "cannot mix d=3 with d=7",
    }
    # a witness over one other field still parses, and fails verification
    for row in lift:
        for x in row:
            x["D"] = 7
    cert = write(tmp_path / "cert.json", payload)
    code, out, err = run(capsys, ["verify", "--cert", cert])
    assert code == 1 and err == ""
    assert json.loads(out)["failures"][0] == {
        "link": 0,
        "condition": "link-error",
        "detail": "ValueError: entry over d=7 in a space over d=3",
    }


def interior_curve_certificate() -> dict:
    from cuspchain.forms import quadratic_2u_perp_diagonal

    space = quadratic_2u_perp_diagonal([-2])
    cert = chains.build_chain_orthogonal(
        space, line(space, unit_vector(space, 0)), line(space, unit_vector(space, 1))
    )
    return serialize.certificate_to_json(cert)


def over(d):
    return {"a": "0", "b": "1", "D": d}


@pytest.mark.parametrize(
    "vector, detail",
    [
        (["0", "0", "1", "1"], "vector of length 4 in a space of dimension 5"),
        ([over(3), "0", "1", "1", "0"], "imaginary entry in a rational form space"),
        ([over(2), over(3), "1", "1", "0"], "imaginary entry in a rational form space"),
        # an entry off the field is named before the length
        ([over(3), "0", "1", "1"], "imaginary entry in a rational form space"),
    ],
)
def test_interior_curve_vector_shape_report(tmp_path, capsys, vector, detail):
    payload = interior_curve_certificate()
    assert payload["links"][0]["type"] == "orth_interior_curve"
    payload["links"][0]["vector"] = vector
    code, out, err = run(capsys, ["verify", "--cert", write(tmp_path / "c.json", payload)])
    assert code == 1 and err == ""
    assert out == (
        '{\n  "failures": [\n    {\n      "condition": "vector-shape",\n'
        f'      "detail": "{detail}",\n      "link": 0\n    }}\n  ],\n'
        '  "ok": false\n}\n'
    )


# The arithmetic operators of QuadFieldElement (those perfbench counts as
# exact.quad_ops); the library computes over Q(sqrt(-D)) without them.
QUAD_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__rtruediv__", "__neg__", "conjugate", "norm")


def test_hermitian_commands_need_no_field_element_arithmetic(tmp_path, capsys, monkeypatch):
    # two planes [[0, s], [-s, 0]] with s = sqrt(-2): imaginary Gram entries
    s, minus_s = over(2), {"a": "0", "b": "-1", "D": 2}
    gram = [["0", s, "0", "0"], [minus_s, "0", "0", "0"],
            ["0", "0", "0", s], ["0", "0", minus_s, "0"]]
    space = write(tmp_path / "space.json", {"kind": "hermitian", "gram": gram, "D": 2})
    i1 = write(tmp_path / "i1.json", {"basis": [["1", "0", "0", "0"], ["0", "0", "1", "0"]]})
    i2 = write(tmp_path / "i2.json", {"basis": [["0", "1", "0", "0"], ["0", "0", "0", "1"]]})
    cert = tmp_path / "cert.json"

    def outputs():
        code, out, _ = run(capsys, ["chain", "--space", space, "--i1", i1, "--i2", i2])
        cert.write_text(out, encoding="utf-8")
        found = [(code, out)]
        for argv in (["verify", "--cert", str(cert)], ["analyze", "--space", space],
                     ["isotropic", "--space", space], ["demo", "hermitian-m2", "--D", "2"]):
            found.append(run(capsys, argv)[:2])
        return found

    plain = outputs()
    assert [code for code, _ in plain] == [0] * 5
    assert json.loads(plain[1][1])["ok"] is True

    def refuse(*args):
        raise AssertionError("QuadFieldElement arithmetic was called")

    for name in QUAD_OPS:
        monkeypatch.setattr(QuadFieldElement, name, refuse)
    assert outputs() == plain


# -- verify on mutated certificates ------------------------------------------------


@functools.cache
def fuzz_certificates() -> tuple[dict, ...]:
    space = standard_symplectic(2)
    symplectic = chains.build_chain_symplectic(
        space, standard_isotropic(space, 2, "e"), standard_isotropic(space, 2, "f")
    )
    symplectic = plain_json(serialize.certificate_to_json(symplectic))
    return symplectic, unitary_descent_certificate()


def json_paths(obj, prefix=()):
    """The path of every value inside obj, as dict keys and list indices."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from json_paths(value, prefix + (key,))


DELETE = object()
MUTATIONS = [None, 5, 1.5, True, "x", [], {}, {"a": "1", "b": "1", "D": 7}, DELETE]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_verify_survives_one_mutated_value(tmp_path_factory, data):
    cert = copy.deepcopy(data.draw(st.sampled_from(fuzz_certificates())))
    *head, last = data.draw(st.sampled_from(list(json_paths(cert))))
    parent = functools.reduce(operator.getitem, head, cert)
    value = data.draw(st.sampled_from(MUTATIONS))
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = value
    path = tmp_path_factory.getbasetemp() / "mutated-cert.json"
    path.write_text(json.dumps(cert), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--cert", str(path)])
    assert code in (0, 1, 2)
    if out.getvalue():
        assert err.getvalue() == ""
    else:
        assert set(json.loads(err.getvalue())) == {"error", "detail"}

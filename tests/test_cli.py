"""CLI and JSON wire format tests: round-trips, determinism, exit codes."""

from __future__ import annotations

import io as std_io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from aptkit import catalog, cli, geometry, io, toric
from aptkit.barcodes import Barcode, bar, barcode
from aptkit.cli import build_parser, main
from aptkit.errors import ComputationTooLarge, InvalidInput
from aptkit.geometry import Cone
from aptkit.interleaving import InterleavingCertificate
from aptkit.modules import HALFLINE, PresentationND, barcode_of_presentation, h0_tensor, presentation_of_barcode
from aptkit.polyhedra import OpenPolyhedron

from generators import ladder_barcode


def run_cli(argv):
    buf = std_io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_json_round_trips():
    b = Barcode([bar(0, 2), bar(Fraction(1, 2), "inf"), bar(1, 1, True, True, hdegree=2)])
    assert io.parse_barcode_json(io.barcode_to_json(b)) == b
    c = Cone(2, [(1, 0), (1, 2)])
    assert io.parse_cone_json(io.cone_to_json(c)) == c
    p = PresentationND(HALFLINE, [(0,), (1,)], [((2,), [1, Fraction(-1, 3)])])
    assert io.parse_presentation_json(io.presentation_to_json(p)) == p
    poly = OpenPolyhedron(2, [((1, 0), Fraction(1, 2)), ((0, 1), 1)])
    assert io.parse_polyhedron_json(io.polyhedron_to_json(poly)) == poly
    assert io.parse_polyhedron_json(io.polyhedron_to_json(OpenPolyhedron.empty(2))).is_empty
    cert = InterleavingCertificate(Fraction(1, 2), Fraction(1, 2), (0, None), (0,))
    parsed = io.parse_certificate_json(json.loads(io.dumps(io.certificate_to_json(cert))))
    assert parsed == cert
    # serialize -> parse -> serialize is byte-stable
    text = io.dumps(io.barcode_to_json(b))
    again = io.dumps(io.barcode_to_json(io.parse_barcode_json(json.loads(text))))
    assert text == again


def test_cli_fan_validate():
    code, out = run_cli(["fan", "validate", "--catalog", "p1"])
    assert code == 0
    assert json.loads(out) == {"valid": True, "complete": True}


def test_cli_determinism():
    argv = ["toric", "charts", "--catalog", "p2"]
    out1 = run_cli(argv)
    out2 = run_cli(argv)
    assert out1 == out2


def test_cli_toric_charts_builds_each_chart_once(monkeypatch):
    calls = []
    build = toric.chart_of_cone
    monkeypatch.setattr(toric, "chart_of_cone", lambda cone: calls.append(cone) or build(cone))
    code, _ = run_cli(["toric", "charts", "--catalog", "p2"])
    assert code == 0
    assert len(calls) == len(catalog.fan("p2").cones) == 7


def test_cli_barcode_pipeline():
    bc = io.dumps(io.barcode_to_json(barcode(bar(0, 2))))
    code, out = run_cli(["barcode", "k0", "--input", bc])
    assert code == 0
    assert json.loads(out) == {"k0": [{"coef": 1, "grade": "0"}, {"coef": -1, "grade": "2"}]}
    code, out = run_cli(["barcode", "eval", "--input", bc, "--at", "1/2"])
    assert json.loads(out) == {"dims": {"0": 1}}
    code, out = run_cli(["barcode", "shift", "--input", bc, "--by", "1"])
    assert json.loads(out)["bars"][0]["birth"] == "-1"
    code, out = run_cli(["barcode", "convolve", "--input", bc, "--input2", bc])
    assert len(json.loads(out)["bars"]) == 2
    code, out = run_cli(["barcode", "torsion", "--input", bc, "--scale", "2"])
    assert json.loads(out) == {"torsion": True}
    code, out = run_cli(["barcode", "almostize", "--catalog", "mixed"])
    assert code == 0
    code, out = run_cli(["barcode", "quotient-loc", "--catalog", "local"])
    assert json.loads(out)["bars"][0]["death"] == "1"
    code, out = run_cli(["barcode", "homdim", "--catalog", "free", "--catalog2", "free"])
    assert json.loads(out) == {"dim": 1}


def test_cli_cone_and_fan_commands():
    code, out = run_cli(["cone", "dual", "--catalog", "p2", "--cone", "s12"])
    assert code == 0 and len(json.loads(out)["generators"]) == 2
    code, out = run_cli(["cone", "proper", "--input", '{"dim":1,"generators":[["1"],["-1"]]}'])
    assert json.loads(out) == {"proper": False}
    code, out = run_cli(["cone", "faces", "--catalog", "quadrant", "--cone", "q"])
    assert len(json.loads(out)["faces"]) == 4
    code, out = run_cli(["fan", "complete", "--catalog", "halffan"])
    assert json.loads(out) == {"complete": False}
    for point in (["--point=-1,0"], ["--point", "-1,0"]):
        code, out = run_cli(["fan", "support", "--catalog", "quadrant", *point])
        assert code == 0 and json.loads(out) == {"contains": False}, point
    code, out = run_cli(["fan", "separate", "--catalog", "p1", "--cone1", "pos", "--cone2", "neg"])
    assert json.loads(out) == {"m": ["1"]}


def test_cli_dist_commands(tmp_path):
    x = io.dumps(io.barcode_to_json(barcode(bar(0, 10))))
    y = io.dumps(io.barcode_to_json(barcode(bar(1, 9))))
    code, out = run_cli(["dist", "compute", "--input", x, "--input2", y])
    payload = json.loads(out)
    assert payload["distance"] == "1"
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(payload["certificate"]))
    code, out = run_cli(["dist", "verify", "--input", x, "--input2", y, "--cert", str(cert_file)])
    assert json.loads(out) == {"valid": True}


def test_cli_cutoff_commands():
    code, out = run_cli(
        ["cutoff", "delta", "--catalog", "p1", "--offsets", '{"pos":"1","neg":"1"}']
    )
    poly = json.loads(out)
    assert code == 0 and len(poly["constraints"]) == 2
    code, out = run_cli(
        ["cutoff", "mink", "--catalog", "p1", "--cone", "pos", "--poly", io.dumps(poly)]
    )
    assert len(json.loads(out)["constraints"]) == 1
    code, out = run_cli(["cutoff", "unit-check", "--catalog", "p2"])
    assert json.loads(out)["ok"] is True
    code, out = run_cli(["cutoff", "star-homology", "--catalog", "p2", "--point", "0,0"])
    assert json.loads(out)["total_rank"] == 1
    code, out = run_cli(
        [
            "cutoff",
            "basis-witness",
            "--catalog",
            "quadrant",
            "--gamma",
            "q",
            "--poly",
            '{"dim":2,"constraints":[{"normal":["1","0"],"offset":"2"},{"normal":["0","1"],"offset":"2"}]}',
            "--point",
            "0,0",
        ]
    )
    assert code == 0 and "a" in json.loads(out)
    half = '{"dim":1,"constraints":[{"normal":["1"],"offset":"0"}]}'
    code, out = run_cli(["cutoff", "indicator-convolve", "--poly", half, "--poly2", half])
    assert json.loads(out)["shift"] == -1


def test_cli_toric_commands():
    code, out = run_cli(["toric", "transition", "--catalog", "p2", "--cone1", "s12", "--cone2", "s23"])
    assert json.loads(out)["m"] == ["1", "0"]
    code, out = run_cli(
        ["toric", "cocycle", "--catalog", "p2", "--cone1", "s12", "--cone2", "s23", "--cone3", "s31"]
    )
    assert json.loads(out) == {"ok": True}
    code, out = run_cli(["toric", "boundary", "--catalog", "p1"])
    assert all(entry["idempotent"] for entry in json.loads(out)["boundary"])
    code, out = run_cli(["toric", "root-level", "--catalog", "p2", "--cone", "s12", "--point", "1/2,1/3"])
    assert json.loads(out) == {"level": 6}
    code, out = run_cli(["toric", "charts", "--catalog", "p1"])
    atlas = json.loads(out)
    assert {t["source"] for t in atlas["transitions"]} == {"0", "neg", "pos"}


def test_cli_large_prime_inputs_return_quickly():
    big = 2**61 - 1
    start = time.perf_counter()
    code, out = run_cli(["module", "barcode", "--catalog", "interval01", "--field", f"f{big}"])
    assert code == 0 and len(json.loads(out)["bars"]) == 1
    code, out = run_cli(
        ["toric", "root-level", "--catalog", "p2", "--cone", "s12", "--point", f"1/{big},1/3"]
    )
    assert code == 0 and json.loads(out) == {"level": 3 * big}
    assert time.perf_counter() - start < 1


def test_cli_module_commands():
    code, out = run_cli(["module", "eval", "--catalog", "quadrant-origin", "--at", "1/2,1/2"])
    assert json.loads(out) == {"dim": 1}
    code, out = run_cli(["module", "barcode", "--catalog", "interval01"])
    assert json.loads(out)["bars"][0]["death"] == "1"
    bc = io.dumps(io.barcode_to_json(barcode(bar(0, 1))))
    code, out = run_cli(["module", "present", "--input", bc])
    pres = json.loads(out)
    assert pres["generators"] == [["0"]]
    code, out = run_cli(
        ["module", "tensor", "--catalog", "interval01", "--catalog2", "interval01"]
    )
    assert code == 0


def test_cli_field_flag_and_env(monkeypatch):
    code, out = run_cli(["cutoff", "unit-check", "--catalog", "p1", "--field", "f2"])
    assert code == 0 and json.loads(out)["ok"] is True
    monkeypatch.setenv("APTKIT_FIELD", "f3")
    code, out = run_cli(["cutoff", "unit-check", "--catalog", "p1"])
    assert code == 0 and json.loads(out)["ok"] is True


def test_cli_domain_error_exit_code():
    code, out = run_cli(["cone", "faces", "--input", '{"dim":1,"generators":[["1"],["-1"]]}'])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "improper-cone"
    code, out = run_cli(["toric", "root-level", "--catalog", "p2", "--cone", "s12", "--point=-1,0"])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "not-in-dual-cone"


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run_cli(["no-such-group"])
    assert exc.value.code == 2


def test_cli_output_file(tmp_path):
    target = tmp_path / "out.json"
    code, out = run_cli(["fan", "validate", "--catalog", "p1", "--output", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text()) == {"valid": True, "complete": True}


@pytest.mark.parametrize("target", ["missing-dir/out.json", "."], ids=["missing-directory", "directory"])
def test_cli_unwritable_output_is_structured(tmp_path, target):
    # the file was once opened outside the error handling: a traceback
    code, out = run_cli(["fan", "validate", "--catalog", "p1", "--output", str(tmp_path / target)])
    error = json.loads(out)["error"]
    assert code == 1 and error["code"] == "bad-input" and "cannot write output file" in error["message"]


def test_cli_invalid_fan_report():
    fanjson = '{"dim":2,"cones":[{"id":"a","generators":[["1","0"],["0","1"]]}]}'
    code, out = run_cli(["fan", "validate", "--input", fanjson])
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["violation"]["code"] == "missing-face"


def test_cli_subprocess_console_script():
    result = subprocess.run(
        [sys.executable, "-m", "aptkit.cli", "fan", "validate", "--catalog", "p1xp1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"valid": True, "complete": True}


def test_cli_dist_infinite():
    x = io.dumps(io.barcode_to_json(barcode(bar(0, "inf"))))
    code, out = run_cli(["dist", "compute", "--input", x, "--input2", '{"bars":[]}'])
    assert code == 0
    payload = json.loads(out)
    assert payload == {"distance": "inf"}


MALFORMED_PRESENTATION = (
    '{"gamma":{"dim":1,"generators":[["1"]]},"generators":[["0"]],'
    '"relations":[{"degree":["1"],"coeffs":["1/2"]}]}'
)
RELATION_WITHOUT_DEGREE = (
    '{"gamma":{"dim":1,"generators":[["1"]]},"generators":[["0"]],"relations":[{"coeffs":["1"]}]}'
)
HALFLINE_JSON = '"gamma":{"dim":1,"generators":[["1"]]}'


@pytest.mark.parametrize(
    "argv",
    [
        ["module", "barcode", "--catalog", "interval01", "--field", "f4"],
        ["module", "barcode", "--field", "f2", "--input", MALFORMED_PRESENTATION],
        ["barcode", "k0", "--input", '{"bars":[{"death":"2"}]}'],
        ["barcode", "eval", "--catalog", "basic", "--at", "abc"],
        ["barcode", "k0", "--input", "no-such-dir/missing.json"],
        ["barcode", "eval", "--input", '{"bars":[{"birth":1.5,"death":3}]}', "--at", "2"],
        ["barcode", "eval", "--input", '{"bars":[{"birth":true,"death":3}]}', "--at", "2"],
        ["barcode", "k0", "--input", '{"bars":[{"birth":"0","death":"1","degree":1.5}]}'],
        ["barcode", "k0", "--input", '{"bars":[{"birth":"0","death":"1","multiplicity":"x"}]}'],
        ["cone", "dual", "--input", '{"dim":2.5,"generators":[["1","0"]]}'],
        ["module", "barcode", "--input", RELATION_WITHOUT_DEGREE],
        ["cutoff", "indicator-convolve", "--poly", '{"dim":1,"constraints":[{"offset":"1"}]}',
         "--poly2", '{"dim":1,"constraints":[]}'],
        ["dist", "verify", "--catalog", "basic", "--catalog2", "basic",
         "--cert", '{"b":"0","forward":[],"backward":[]}'],
        ["dist", "verify", "--catalog", "basic", "--catalog2", "basic",
         "--cert", '{"a":"0","b":"0","forward":[true],"backward":[]}'],
        ["cone", "dual", "--input", '{"dim":2,"generators":5}'],
        ["fan", "validate", "--input", '{"dim":1,"cones":5}'],
        ["fan", "validate", "--input", '{"dim":1,"cones":[{"generators":5}]}'],
        ["barcode", "eval", "--input", '{"bars":5}', "--at", "0"],
        ["module", "eval", "--input", "{" + HALFLINE_JSON + ',"generators":5}', "--at", "0"],
        ["module", "eval", "--input", "{" + HALFLINE_JSON + ',"generators":[["0"]],"relations":5}',
         "--at", "0"],
        ["module", "eval", "--input",
         "{" + HALFLINE_JSON + ',"generators":[["0"]],"relations":[{"degree":["1"],"coeffs":5}]}',
         "--at", "0"],
        ["cutoff", "indicator-convolve", "--poly", '{"dim":1,"constraints":5}',
         "--poly2", '{"dim":1,"constraints":[]}'],
        ["dist", "verify", "--catalog", "basic", "--catalog2", "basic",
         "--cert", '{"a":"0","b":"0","forward":5,"backward":[0]}'],
        ["barcode", "eval", "--input", '{"bars":[{"birth":"0","death":"1","birth_closed":"no"}]}',
         "--at", "0"],
        ["barcode", "eval", "--input", '{"bars":[{"birth":"0","death":"1","death_closed":1}]}',
         "--at", "1"],
        ["fan", "validate", "--input", '{"dim":1,"cones":[{"id":null,"generators":[["1"]]}]}'],
        ["fan", "validate", "--input", '{"dim":1,"cones":[{"id":[1],"generators":[["-1"]]}]}'],
        ["fan", "validate", "--input", '{"dim":1,"cones":[{"id":{"a":1},"generators":[]}]}'],
        ["cutoff", "indicator-convolve", "--poly",
         '{"dim":1,"empty":"false","constraints":[{"normal":["1"],"offset":"0"}]}',
         "--poly2", '{"dim":1,"constraints":[]}'],
        ["module", "eval", "--catalog", "interval01", "--at", "0", "--field", "f\u00b2"],
        ["module", "eval", "--catalog", "interval01", "--at", "0", "--field", "f" + "7" * 5000],
    ],
    ids=["non-prime-field", "denominator-not-invertible", "bar-without-birth", "grade-not-rational",
         "missing-input-file", "float-grade", "bool-grade", "float-degree", "non-integer-multiplicity",
         "float-dim", "relation-without-degree", "constraint-without-normal", "certificate-without-a",
         "bool-certificate-index", "generators-not-a-list", "fan-cones-not-a-list",
         "fan-generators-not-a-list", "bars-not-a-list", "module-generators-not-a-list",
         "relations-not-a-list", "coeffs-not-a-list", "constraints-not-a-list", "forward-not-a-list",
         "birth-closed-string", "death-closed-integer", "null-cone-id", "list-cone-id",
         "object-cone-id", "empty-string", "field-of-non-ascii-digits", "field-of-too-many-digits"],
)
def test_cli_malformed_input_is_structured(argv):
    code, out = run_cli(argv)
    assert code == 1
    assert json.loads(out)["error"]["code"] == "bad-input"


@pytest.mark.parametrize("from_file", [False, True], ids=["inline", "file"])
def test_cli_deeply_nested_json_is_bad_input(tmp_path, from_file):
    text = "[" * 100_000 + "]" * 100_000
    if from_file:
        path = tmp_path / "deep.json"
        path.write_text(text)
        text = str(path)
    code, out = run_cli(["fan", "validate", "--input", text])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "bad-input"


def test_cli_input_file_that_is_not_utf8_is_bad_input(tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe{")
    code, out = run_cli(["fan", "validate", "--input", str(path)])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["code"] == "bad-input" and repr(str(path)) in error["message"]


def test_cli_verify_out_of_range_index_is_invalid():
    code, out = run_cli(["dist", "verify", "--catalog", "basic", "--catalog2", "basic",
                         "--cert", '{"a":"0","b":"0","forward":[0],"backward":[5]}'])
    assert code == 0 and json.loads(out) == {"valid": False}


def test_cli_conversion_past_the_ray_cap_is_structured(monkeypatch, capsys, empty_table):
    monkeypatch.setattr(geometry, "_DD_RAY_CAP", 2)
    square = '{"dim":3,"generators":[["1","1","1"],["1","-1","1"],["-1","-1","1"],["-1","1","1"]]}'
    code, out = run_cli(["cone", "dual", "--input", square])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "too-large"
    assert capsys.readouterr().err == ""


def _choices(parser):
    """The subcommand parsers of a parser, by name."""
    return parser._subparsers._group_actions[0].choices


FULL_PARSER = build_parser()
COMMANDS = [(group, command, command_parser)
            for group, group_parser in _choices(FULL_PARSER).items()
            for command, command_parser in _choices(group_parser).items()]


def _required_flags(command_parser):
    """The required flags of a command, each set to "1"."""
    return [word for action in command_parser._actions if action.required
            for word in (action.option_strings[0], "1")]


@pytest.mark.parametrize("group, command, command_parser", COMMANDS,
                         ids=[f"{group}-{command}" for group, command, _ in COMMANDS])
def test_single_group_parser_agrees_with_the_full_parser(group, command, command_parser):
    parser = build_parser(group)
    assert list(_choices(parser)) == list(_choices(FULL_PARSER))
    options = [action for action in command_parser._actions if action.option_strings[0] != "-h"]
    every_flag = [word for action in options for word in (action.option_strings[0], "1")]
    for argv in ([group, command, *every_flag], [group, command, *_required_flags(command_parser)]):
        assert vars(parser.parse_args(argv)) == vars(FULL_PARSER.parse_args(argv))


with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md"),
          encoding="utf-8") as _readme:
    COMMAND_LINE = _readme.read().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
README_EXAMPLES = [shlex.split(line) for line in COMMAND_LINE.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()]


def test_readme_subcommand_map_is_the_command_table():
    listed = re.findall(r"^- `(\S+) (\S+)`$", COMMAND_LINE, re.MULTILINE)
    assert [(group, commands.split("|")) for group, commands in listed] == [
        (group, list(commands)) for group, commands in cli._COMMANDS.items()]


@pytest.mark.parametrize("argv", README_EXAMPLES, ids=[" ".join(argv[1:3]) for argv in README_EXAMPLES])
def test_readme_command_line_examples_run(argv, monkeypatch, capsys):
    monkeypatch.delenv("APTKIT_FIELD", raising=False)
    assert argv[0] == "aptkit"
    code, out = run_cli(argv[1:])
    assert code == 0 and "error" not in json.loads(out), out
    assert capsys.readouterr().err == ""


def _usage(argv):
    out, err = std_io.StringIO(), std_io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


USAGE_ARGVS = [["--help"], ["cone"], ["no-such-group"], ["cone", "no-such-command"],
               ["cone", "dual", "--no-such-flag"]] + [[group, "--help"] for group in _choices(FULL_PARSER)]


@pytest.mark.parametrize("argv", USAGE_ARGVS, ids=[" ".join(argv) for argv in USAGE_ARGVS])
def test_usage_output_is_the_full_parsers(argv, monkeypatch):
    single = _usage(argv)
    assert single[0] in (0, 2)
    monkeypatch.setattr(cli, "build_parser", lambda group=None: build_parser())
    assert _usage(argv) == single
    if argv == ["--help"]:  # every single-group parser lists every group
        for group in _choices(FULL_PARSER):
            monkeypatch.setattr(cli, "build_parser", lambda _=None, group=group: build_parser(group))
            assert _usage(argv) == single


HALF = '{"dim":1,"constraints":[{"normal":["1"],"offset":"0"}]}'
SQUARE = '{"dim":2,"constraints":[{"normal":["1","0"],"offset":"2"},{"normal":["0","1"],"offset":"2"}]}'
FIELD_FREE = {
    ("cone", "dual"): ["--catalog", "p2", "--cone", "s12"],
    ("cone", "proper"): ["--input", '{"dim":1,"generators":[["1"],["-1"]]}'],
    ("cone", "faces"): ["--catalog", "quadrant", "--cone", "q"],
    ("fan", "validate"): ["--catalog", "p1"],
    ("fan", "complete"): ["--catalog", "halffan"],
    ("fan", "separate"): ["--catalog", "p1", "--cone1", "pos", "--cone2", "neg"],
    ("fan", "support"): ["--catalog", "quadrant", "--point", "-1,0"],
    ("barcode", "eval"): ["--catalog", "pair", "--at", "3/2"],
    ("barcode", "shift"): ["--catalog", "pair", "--by", "-1/2"],
    ("barcode", "convolve"): ["--catalog", "basic", "--catalog2", "pair"],
    ("barcode", "almostize"): ["--catalog", "mixed"],
    ("barcode", "k0"): ["--catalog", "pair"],
    ("barcode", "torsion"): ["--catalog", "basic", "--scale", "2"],
    ("barcode", "quotient-loc"): ["--catalog", "local"],
    ("barcode", "homdim"): ["--catalog", "free", "--catalog2", "free"],
    ("dist", "compute"): ["--catalog", "pair", "--catalog2", "basic"],
    ("dist", "verify"): ["--catalog", "basic", "--catalog2", "basic",
                         "--cert", '{"a":"0","b":"0","forward":[0],"backward":[0]}'],
    ("cutoff", "delta"): ["--catalog", "p1", "--offsets", '{"pos":"1","neg":"1"}'],
    ("cutoff", "mink"): ["--catalog", "p1", "--cone", "pos", "--poly", HALF],
    ("cutoff", "basis-witness"): ["--catalog", "quadrant", "--gamma", "q", "--poly", SQUARE, "--point", "0,0"],
    ("cutoff", "indicator-convolve"): ["--poly", HALF, "--poly2", HALF],
    ("toric", "charts"): ["--catalog", "p1"],
    ("toric", "transition"): ["--catalog", "p2", "--cone1", "s12", "--cone2", "s23"],
    ("toric", "cocycle"): ["--catalog", "p2", "--cone1", "s12", "--cone2", "s23", "--cone3", "s31"],
    ("toric", "boundary"): ["--catalog", "p1"],
    ("toric", "root-level"): ["--catalog", "p2", "--cone", "s12", "--point", "1/2,1/3"],
}


def _joined(flags):
    """The same flags and values in the ``--flag=value`` form."""
    return [f"{flag}={value}" for flag, value in zip(flags[::2], flags[1::2])]


SIGNED_VALUES = [["barcode", "shift", "--catalog", "basic", "--by", "-1/2"],
                 ["fan", "support", "--catalog", "quadrant", "--point", "-1,0"],
                 ["module", "eval", "--catalog", "interval01", "--at", "-1/2"]]


@pytest.mark.parametrize("argv", SIGNED_VALUES, ids=[" ".join(argv[:2] + argv[-2:]) for argv in SIGNED_VALUES])
def test_a_value_that_starts_with_a_minus_is_a_value(argv, monkeypatch):
    # argparse reads only plain negative numbers such as -1 as values: the
    # space form of these once exited 2 with "expected one argument"
    monkeypatch.delenv("APTKIT_FIELD", raising=False)
    spaced = run_cli(argv)
    assert spaced[0] == 0 and "error" not in json.loads(spaced[1]), spaced
    assert run_cli([argv[0], argv[1], *_joined(argv[2:])]) == spaced
    code, out, err = _usage([*argv, "-h"])
    assert code == 0 and out.startswith(f"usage: aptkit {argv[0]} {argv[1]}") and err == ""
    for unknown in ("--no-such-flag", "-x"):
        code, out, err = _usage([*argv, unknown])
        assert code == 2 and out == "" and f"unrecognized arguments: {unknown}" in err


def test_only_commands_that_read_a_field_take_one(monkeypatch):
    takes_field = {(group, command) for group, command, parser in COMMANDS
                   if any("--field" in action.option_strings for action in parser._actions)}
    assert takes_field == {("module", "eval"), ("module", "tensor"), ("module", "barcode"),
                           ("module", "present"), ("cutoff", "star-homology"), ("cutoff", "unit-check")}
    assert set(FIELD_FREE) == {(group, command) for group, command, _ in COMMANDS} - takes_field
    for (group, command), flags in FIELD_FREE.items():
        monkeypatch.delenv("APTKIT_FIELD", raising=False)
        plain = run_cli([group, command, *flags])
        assert plain[0] == 0 and "error" not in json.loads(plain[1]), (group, command, plain)
        assert run_cli([group, command, *_joined(flags)]) == plain, (group, command)
        monkeypatch.setenv("APTKIT_FIELD", "f4")
        assert run_cli([group, command, *flags]) == plain, (group, command)
    monkeypatch.setenv("APTKIT_FIELD", "f4")  # still read where a field is
    code, out = run_cli(["cutoff", "unit-check", "--catalog", "p1"])
    assert code == 1 and json.loads(out)["error"] == {"code": "bad-input", "message": "4 is not prime"}


@pytest.mark.parametrize("group, command, command_parser", COMMANDS,
                         ids=[f"{group}-{command}" for group, command, _ in COMMANDS])
def test_a_missing_input_is_bad_input_naming_its_flags(group, command, command_parser, monkeypatch, capsys):
    monkeypatch.delenv("APTKIT_FIELD", raising=False)
    argv = [group, command, *_required_flags(command_parser)]
    code, out = run_cli(argv)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["code"] == "bad-input"
    assert error["message"] in ("provide --input or --catalog", "provide --poly")
    if any("--catalog2" in action.option_strings for action in command_parser._actions):
        assert (group, command) in {("barcode", "convolve"), ("barcode", "homdim"), ("dist", "compute"),
                                    ("dist", "verify"), ("module", "tensor")}
        first = "interval01" if group == "module" else "basic"
        code, out = run_cli([*argv, "--catalog", first])
        assert code == 1
        assert json.loads(out)["error"] == {"code": "bad-input", "message": "provide --input2 or --catalog2"}
    if group == "cone":  # a catalog fan names no cone by itself
        code, out = run_cli([*argv, "--catalog", "p1"])
        assert code == 1
        assert json.loads(out)["error"] == {"code": "bad-input", "message": "--cone is required with --catalog"}
    assert capsys.readouterr().err == ""


P2 = catalog.fan("p2")
P2_JSON = io.dumps({"dim": 2, "cones": [{**io.cone_to_json(c), "id": cid} for cid, c in zip(P2.ids, P2.cones)]})
INPUT_ERRORS = {
    "malformed-json": (["barcode", "k0", "--input", '{"bars": [}'], "malformed JSON input: Expecting value"),
    "fan-input-without-cone": (["cone", "faces", "--input", P2_JSON], "--cone is required with a fan input"),
    "catalog-without-gamma": (["cutoff", "basis-witness", "--catalog", "p2", "--poly", SQUARE, "--point", "0,0"],
                              "--gamma is required with --catalog"),
    "short-point": (["fan", "support", "--catalog", "p2", "--point", "1"], "point must have 2 coordinates"),
    "long-point": (["toric", "root-level", "--catalog", "p1", "--cone", "pos", "--point", "1,2"],
                   "point must have 1 coordinates"),
    "long-at": (["module", "eval", "--catalog", "interval01", "--at", "1,2"], "grade must have 1 coordinates"),
    "relation-in-both-forms": (["module", "eval", "--input", '{"gamma": {"dim": 1, "generators": [["1"]]}, '
                                '"generators": [["0"]], "relations": [{"degree": ["1"], "coeffs": ["1"], '
                                '"terms": [[0, "1"]]}]}', "--at", "0"],
                               "each relation needs one of 'terms' and 'coeffs'"),
    # a digit string past int()'s default limit of 4300 digits ended in a ValueError
    "long-dim": (["cone", "dual", "--input", '{"dim": "%s", "generators": []}' % ("7" * 5000)],
                 "a rational may have at most 600 digits"),
}


@pytest.mark.parametrize("argv, message", INPUT_ERRORS.values(), ids=INPUT_ERRORS)
def test_cli_input_errors_name_the_input(argv, message, capsys):
    code, out = run_cli(argv)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["code"] == "bad-input" and error["message"].startswith(message), error
    assert capsys.readouterr().err == ""


NEGATIVE_CONE = '{"dim":-1,"generators":[]}'
NEGATIVE_FAN = '{"dim":-1,"cones":[{"id":"a","generators":[]}]}'
NEGATIVE_POLY = '{"dim":-1,"constraints":[]}'
NEGATIVE_PRESENTATION = '{"gamma":{"dim":-1,"generators":[]},"generators":[]}'
NEGATIVE_DIM = {
    "cone-dual": ["cone", "dual", "--input", NEGATIVE_CONE],
    "cone-dual-fan": ["cone", "dual", "--input", NEGATIVE_FAN, "--cone", "a"],
    "cone-proper": ["cone", "proper", "--input", NEGATIVE_CONE],
    "cone-faces": ["cone", "faces", "--input", NEGATIVE_CONE],
    "fan-validate": ["fan", "validate", "--input", NEGATIVE_FAN],
    "fan-complete": ["fan", "complete", "--input", NEGATIVE_FAN],
    "fan-separate": ["fan", "separate", "--input", NEGATIVE_FAN, "--cone1", "a", "--cone2", "a"],
    "fan-support": ["fan", "support", "--input", NEGATIVE_FAN, "--point", "0"],
    "cutoff-delta": ["cutoff", "delta", "--input", NEGATIVE_FAN, "--offsets", "{}"],
    "cutoff-mink-poly": ["cutoff", "mink", "--catalog", "p1", "--cone", "pos", "--poly", NEGATIVE_POLY],
    "cutoff-mink-fan": ["cutoff", "mink", "--input", NEGATIVE_FAN, "--cone", "a", "--poly", HALF],
    "cutoff-basis-witness-poly": ["cutoff", "basis-witness", "--catalog", "quadrant", "--gamma", "q",
                                  "--poly", NEGATIVE_POLY, "--point", "0,0"],
    "cutoff-basis-witness-cone": ["cutoff", "basis-witness", "--input", NEGATIVE_CONE, "--poly", SQUARE,
                                  "--point", "0,0"],
    "cutoff-star-homology": ["cutoff", "star-homology", "--input", NEGATIVE_FAN, "--point", "0"],
    "cutoff-unit-check": ["cutoff", "unit-check", "--input", NEGATIVE_FAN],
    "cutoff-indicator-convolve": ["cutoff", "indicator-convolve", "--poly", NEGATIVE_POLY,
                                  "--poly2", NEGATIVE_POLY],
    "cutoff-indicator-convolve-empty": ["cutoff", "indicator-convolve", "--poly", HALF,
                                        "--poly2", '{"dim":-1,"empty":true}'],
    "toric-charts": ["toric", "charts", "--input", NEGATIVE_FAN],
    "toric-transition": ["toric", "transition", "--input", NEGATIVE_FAN, "--cone1", "a", "--cone2", "a"],
    "toric-cocycle": ["toric", "cocycle", "--input", NEGATIVE_FAN, "--cone1", "a", "--cone2", "a",
                      "--cone3", "a"],
    "toric-boundary": ["toric", "boundary", "--input", NEGATIVE_FAN],
    "toric-root-level": ["toric", "root-level", "--input", NEGATIVE_FAN, "--cone", "a", "--point", "0"],
    "module-eval": ["module", "eval", "--input", NEGATIVE_PRESENTATION, "--at", "0"],
    "module-tensor": ["module", "tensor", "--catalog", "interval01", "--input2", NEGATIVE_PRESENTATION],
    "module-barcode": ["module", "barcode", "--input", NEGATIVE_PRESENTATION],
}


def test_every_command_that_reads_a_dimension_is_covered():
    reads_one = {(group, command) for group, command, _ in COMMANDS
                 if group not in ("barcode", "dist") and (group, command) != ("module", "present")}
    assert {tuple(argv[:2]) for argv in NEGATIVE_DIM.values()} == reads_one


@pytest.mark.parametrize("argv", NEGATIVE_DIM.values(), ids=NEGATIVE_DIM)
def test_cli_negative_dimension_is_bad_input(argv, monkeypatch, capsys):
    monkeypatch.delenv("APTKIT_FIELD", raising=False)
    code, out = run_cli(argv)
    assert code == 1
    assert json.loads(out)["error"] == {"code": "bad-input", "message": "dim must be a nonnegative integer, got -1"}
    assert capsys.readouterr().err == ""


def test_constructors_refuse_a_dimension_that_is_not_a_nonnegative_int():
    for build in (lambda: Cone(-1, []), lambda: Cone(2.5, []), lambda: OpenPolyhedron(-1, []),
                  lambda: OpenPolyhedron.empty(-1)):
        with pytest.raises(InvalidInput):
            build()
    assert Cone(0, []).dim == OpenPolyhedron(0, []).dim == 0


def _cli_within_1_gib(argv, seconds=1):
    """Run the CLI in a child limited to 1 GiB of address space, where a list
    of 10^8 bars would end in a MemoryError: it must exit within ``seconds``,
    with no traceback.  Its exit code and stdout."""
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
              "from aptkit.cli import main\n"
              f"sys.exit(main({argv!r}))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert time.perf_counter() - start < seconds
    assert result.stderr == ""
    return result.returncode, result.stdout


def _too_large_within_1_gib(argv):
    code, out = _cli_within_1_gib(argv)
    assert code == 1 and json.loads(out)["error"]["code"] == "too-large"


HUGE_MULTIPLICITY = '{"bars":[{"birth":"0","death":"1","multiplicity":100000000}]}'


def test_cli_dist_compute_on_a_huge_multiplicity_is_too_large():
    _too_large_within_1_gib(["dist", "compute", "--input", HUGE_MULTIPLICITY, "--catalog2", "basic"])


def test_cli_module_present_on_a_huge_multiplicity_is_too_large():
    _too_large_within_1_gib(["module", "present", "--input", HUGE_MULTIPLICITY])


def test_cli_module_present_of_a_long_ladder_answers_within_1_gib(tmp_path):
    # 6000 generators and 6000 relations, 3.6 * 10^7 entries if written densely
    path = tmp_path / "ladder.json"
    path.write_text(io.dumps(io.barcode_to_json(ladder_barcode(random.Random(6000), 6000))))
    code, out = _cli_within_1_gib(["module", "present", "--input", str(path)], seconds=5)
    written = json.loads(out)
    assert code == 0 and (len(written["generators"]), len(written["relations"])) == (6000, 6000)
    assert len(out) < 2 * 10**6


def test_cli_module_tensor_of_two_ladders_answers_within_1_gib(tmp_path):
    # the Rees presentations of two 100-bar ladders: 10^4 generators and
    # 2 * 10^4 relations, 2 * 10^8 entries if written densely
    argv, factors = ["module", "tensor"], []
    for flag, seed in (("--input", 100), ("--input2", 101)):
        factors.append(presentation_of_barcode(ladder_barcode(random.Random(seed), 100)))
        path = tmp_path / f"rees{seed}.json"
        path.write_text(io.dumps(io.presentation_to_json(factors[-1])))
        argv += [flag, str(path)]
    code, out = _cli_within_1_gib(argv, seconds=5)
    written = json.loads(out)
    assert code == 0 and (len(written["generators"]), len(written["relations"])) == (10**4, 2 * 10**4)
    assert len(out) < 2 * 10**6
    path = tmp_path / "tensor.json"
    path.write_text(out)
    code, bars = run_cli(["module", "barcode", "--input", str(path)])
    assert code == 0
    assert json.loads(bars) == io.barcode_to_json(barcode_of_presentation(h0_tensor(*factors)))


def test_cli_whole_space_past_the_dim_cap_is_too_large():
    # the dual of the whole space of dim 2000 ended in a MemoryError within 1 GiB
    _too_large_within_1_gib(["cone", "dual", "--input", '{"dim": 2000, "generators": []}'])


def test_constructors_refuse_a_dimension_past_the_cap():
    cap = geometry._DIM_CAP
    for build in (lambda: Cone(cap + 1, []), lambda: OpenPolyhedron(cap + 1, [])):
        with pytest.raises(ComputationTooLarge) as caught:
            build()
        assert caught.value.as_report()["details"] == {"dim": cap + 1, "cap": cap}
    assert Cone(cap, []).dim == cap


HUGE_GRADES = [
    ["barcode", "k0", "--input", '{"bars":[{"birth":"0","death":"1e5000"}]}'],
    ["barcode", "k0", "--input", '{"bars":[{"birth":"0","death":"1e-5000"}]}'],
    ["barcode", "k0", "--input", '{"bars":[{"birth":"0","death":"%s"}]}' % ("7" * 5000)],
    ["barcode", "k0", "--input", '{"bars":[{"birth":0,"death":%s}]}' % ("7" * 5000)],
]


@pytest.mark.parametrize("argv", HUGE_GRADES, ids=["exponent", "negative-exponent", "string", "json-int"])
def test_cli_huge_grade_is_bad_input(argv):
    code, out = run_cli(argv)
    assert code == 1 and json.loads(out)["error"]["code"] == "bad-input"


def test_cli_grade_of_600_digits_prints_exactly():
    code, out = run_cli(["barcode", "k0", "--input", '{"bars":[{"birth":"0","death":"1e599"}]}'])
    assert code == 0 and json.loads(out)["k0"][1]["grade"] == "1" + "0" * 599


def _run_cli_process(argv, limit=None):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    flags = [] if limit is None else ["-X", f"int_max_str_digits={limit}"]
    result = subprocess.run([sys.executable, *flags, "-m", "aptkit.cli", *argv],
                            capture_output=True, text=True, env=env)
    return result.returncode, result.stdout, result.stderr


@pytest.mark.parametrize("limit", [None, "0"], ids=["default-limit", "no-limit"])
def test_cli_huge_grade_answer_ignores_the_int_digit_limit(limit):
    for argv in HUGE_GRADES:
        assert _run_cli_process(argv, limit) == (1, run_cli(argv)[1], "")


def test_cli_long_computed_rationals_print_whatever_the_int_digit_limit(tmp_path):
    # within the input cap, 1/d off the diagonal with d odd of 589 digits
    # gives a dual whose primitive generators have entries of over 4300
    # digits, which str() refuses under the default limit
    rng = random.Random(5)
    gens = [["1" if i == j else f"1/{rng.randrange(10**588, 10**589) | 1}" for j in range(4)] for i in range(4)]
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"dim": 4, "generators": gens}))
    argv = ["cone", "dual", "--input", str(path)]
    code, out, err = _run_cli_process(argv)
    assert (code, err) == (0, "")
    assert _run_cli_process(argv, "0") == (0, out, "") and run_cli(argv) == (0, out)
    dual = geometry.dual_cone(io.parse_cone_json(json.loads(path.read_text())))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = [[str(x) for x in g] for g in dual.generators]
        for k in (0, 599, 600, 601, 1200, 1201, 9000):  # chunk edges, and chunks of zeros
            for n in (10**k - 1, 10**k, 10**k + 1, 7 * 10**k // 3, -10**k):
                assert io._decimal(n) == str(n)
    finally:
        sys.set_int_max_str_digits(limit)
    assert json.loads(out)["generators"] == expected
    assert max(len(x) for g in expected for x in g) > 4300


def test_unknown_catalog_names_are_reported_with_the_known_ones(monkeypatch):
    known = {
        catalog.fan: ["halffan", "hirzebruch-1", "hirzebruch-2", "p1", "p1xp1", "p2", "quadrant"],
        catalog.barcode: ["basic", "free", "local", "mixed", "pair"],
        catalog.presentation: ["free1d", "interval01", "quadrant-origin"],
    }
    for lookup, names in known.items():
        with pytest.raises(InvalidInput) as caught:
            lookup("nope")
        assert caught.value.as_report() == {
            "code": "bad-input",
            "message": f"unknown catalog {lookup.__name__} 'nope'",
            "details": {"available": names},
        }
    # a KeyError inside a builder is the builder's fault, not an unknown name
    monkeypatch.setitem(catalog._BARCODES, "broken", lambda: {}["missing"])
    with pytest.raises(KeyError):
        catalog.barcode("broken")

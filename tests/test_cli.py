import argparse
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from g2orbits import cli, orbits
from g2orbits.cayley import Octonion
from g2orbits.cli import main
from g2orbits.errors import InternalInvariantError, SumNonzeroError
from g2orbits.orbits import Census
from test_checks import LEIBNIZ_BUILDS, last_line_of


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: every subcommand's option strings; a new flag is added here first
CLI_OPTIONS = {
    "table": [],
    "derivations": [],
    "roots": [],
    "classify": ["--tau", "--project", "--json", "--convention"],
    "scan": ["--radius", "--format"],
    "check": [],
}


class TestSurface:
    def test_options_of_every_subcommand(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        options = {
            name: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
            for name, p in sub.choices.items()
        }
        assert options == CLI_OPTIONS

    def test_scan_takes_no_convention(self, capsys):
        # labels belong to classify; a census carries orbit types only
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--radius", "6", "--convention", "short=u1xsp1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err


class TestClassifyCommand:
    def test_json_report(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--tau", "1,0,-1", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["stabilizer_dim"] == 4
        assert d["orbit_type"] == "DIM4_SHORT"
        assert d["tau"] == ["1", "0", "-1"]
        assert d["vanishing_roots"] == [[0, 1, 0], [1, 0, 1]]
        assert d["structure"] == {"dim": 4, "derived_dim": 3, "center_dim": 1}

    def test_a_cold_classify_builds_no_leibniz_system(self):
        # the basis comes from the graded blocks; the 512x64 system is
        # check 1's alone
        code = 'from g2orbits import cli\ncli.main(["classify", "--tau=1,0,-1", "--json"])'
        assert last_line_of(LEIBNIZ_BUILDS.format(code=code)) == "0"

    def test_text_report(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--tau", "0,0,0")
        assert code == 0
        assert "orbit_label:     G2/G2" in out
        assert "stabilizer_dim:  14" in out

    def test_sum_nonzero_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--tau", "1,1,1")
        assert code == 2
        assert "SUM_NONZERO" in err


    def test_project_flag(self, capsys):
        # (2,1,0) minus its mean 1 is (1,0,-1)
        code, out, err = run_cli(capsys, "classify", "--tau", "2,1,0", "--project", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["tau"] == ["1", "0", "-1"]
        assert d["orbit_type"] == "DIM4_SHORT"

    def test_rational_input(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--tau", "1/2,0,-1/2", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["orbit_type"] == "DIM4_SHORT"

    def test_bad_rational_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--tau", "1,x,0")
        assert code == 2
        assert "error" in err

    def test_wrong_arity_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--tau", "1,2")
        assert code == 2

    def test_convention_flag(self, capsys):
        code, out, err = run_cli(
            capsys, "classify", "--tau", "1,0,-1", "--json", "--convention", "short=u1xsp1"
        )
        assert code == 0
        d = json.loads(out)
        assert d["orbit_label"] == "G2/((U(1)xSp(1))/Z2)"
        assert d["convention"] == "short=u1xsp1"

    @pytest.mark.parametrize("tau", ["1e400,0,-1e400", "1e-400,0,-1e-400"])
    def test_exponent_beyond_bound_exit_2(self, capsys, tau):
        code, out, err = run_cli(capsys, "classify", "--tau", tau, "--json")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "exponent of magnitude at most 100" in err

    def test_exponent_message_is_unchanged(self, capsys):
        # the bound is linalg's; underscores count as Fraction counts them
        code, out, err = run_cli(capsys, "classify", "--tau= 1e1_01,0,-1e1_01")
        assert (code, out) == (2, "")
        assert err == (
            "error: --tau literal '1e1_01' is out of bounds: at most 100 characters"
            " and a decimal exponent of magnitude at most 100\n"
        )

    def test_huge_exponent_rejected_before_parsing(self, capsys, monkeypatch):
        # Fraction("1e100000000") would build an integer of 10^8 digits
        def no_parse(text):
            raise AssertionError(f"Fraction({text!r}) was called")

        monkeypatch.setattr("g2orbits.cli.Fraction", no_parse)
        code, out, err = run_cli(capsys, "classify", "--tau", "1e100000000,0,-1e100000000")
        assert code == 2
        assert err.startswith("error:") and "out of bounds" in err

    def test_long_literal_exit_2(self, capsys):
        big = "1" + "0" * 100  # 101 characters
        code, out, err = run_cli(capsys, "classify", "--tau", f"{big},0,-{big}")
        assert code == 2
        assert err.startswith("error:") and "at most 100 characters" in err

    def test_literals_within_bounds_parse(self, capsys):
        half = "-5" + "0" * 98  # 100 characters, like the first component
        for tau, first, orbit_type in [
            ("123456789/987654320,0,-123456789/987654320", "123456789/987654320", "DIM4_SHORT"),
            ("1e100,0,-1e100", "1" + "0" * 100, "DIM4_SHORT"),
            (f"1{'0' * 99},{half},{half}", "1" + "0" * 99, "DIM4_LONG"),
        ]:
            code, out, err = run_cli(capsys, "classify", "--tau", tau, "--json")
            assert code == 0, err
            d = json.loads(out)
            assert d["tau"][0] == first
            assert d["orbit_type"] == orbit_type


class TestErrorPrefixes:
    """stderr is the exception's code, a colon and its message."""

    def test_sum_nonzero(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--tau", "1,1,1")
        assert (code, out) == (2, "")
        assert err == "SUM_NONZERO: components sum to 3; pass --project to remove the mean\n"
        assert err.partition(": ")[0] == SumNonzeroError.code

    def test_internal(self, capsys, monkeypatch):
        def broken(tau, convention):
            raise InternalInvariantError("stabilizer dimension 3 outside {2, 4, 14}")

        monkeypatch.setattr(cli, "classify", broken)
        code, out, err = run_cli(capsys, "classify", "--tau", "1,0,-1")
        assert (code, out) == (3, "")
        assert err == "INTERNAL: stabilizer dimension 3 outside {2, 4, 14}\n"
        assert err.partition(": ")[0] == InternalInvariantError.code


class TestScanCommand:
    def test_csv(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--radius", "1", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "tau1,tau2,tau3,stabilizer_dim,orbit_type"
        assert len(lines) == 8
        assert "0,0,0,14,FULL" in lines

    def test_json(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--radius", "2", "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert d["radius"] == 2
        assert d["counts"]["FULL"] == 1
        assert d["stabilizer_dims_ok"] is True
        assert len(d["census"]) == d["points"]

    def test_bad_radius_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--radius", "0")
        assert code == 2

    def test_radius_beyond_bound_exit_2(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("scan ran for a radius beyond the bound")

        monkeypatch.setattr(cli, "scan", refuse)
        code, out, err = run_cli(capsys, "scan", "--radius", str(cli.SCAN_MAX_RADIUS + 1))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(cli.SCAN_MAX_RADIUS) in err

    def test_radius_at_bound_reaches_scan(self, capsys, monkeypatch):
        seen = []

        def stub(radius):
            seen.append(radius)
            return Census(radius=radius, counts={})

        monkeypatch.setattr(cli, "scan", stub)
        code, out, err = run_cli(capsys, "scan", "--radius", str(cli.SCAN_MAX_RADIUS), "--format", "csv")
        assert code == 0, err
        assert seen == [cli.SCAN_MAX_RADIUS]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_streams_without_reports(self, capsys, monkeypatch, fmt):
        argv = ["scan", "--radius", "30", "--format", fmt]
        code, expected, err = run_cli(capsys, *argv)
        assert code == 0, err

        def no_report(*args, **kwargs):
            raise AssertionError("scan built a ClassificationReport")

        monkeypatch.setattr(orbits, "ClassificationReport", no_report)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out == expected

    @pytest.mark.parametrize("buffered", [False, True])
    def test_a_closed_stdout_pipe_exits_1_quietly(self, buffered):
        # the reader takes one line and closes the pipe, as `| head -1` does
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        argv = [sys.executable, "-m", "g2orbits", "scan", "--radius", str(cli.SCAN_MAX_RADIUS), "--format", "csv"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"tau1,tau2,tau3,stabilizer_dim,orbit_type\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert err == b""

    @pytest.mark.parametrize("radius", [1, 2, 9])
    def test_streamed_json_is_the_dumped_census(self, capsys, radius):
        code, out, err = run_cli(capsys, "scan", "--radius", str(radius), "--format", "json")
        assert code == 0
        assert out == json.dumps(orbits.scan(radius).to_json_dict(), indent=2) + "\n"


class TestTableCommand:
    def test_table(self, capsys):
        code, out, err = run_cli(capsys, "table")
        assert code == 0
        d = json.loads(out)
        assert d["basis"] == [f"e{i}" for i in range(8)]
        assert d["display"][4][4] == "-e0"
        assert d["display"][1][2] == "e3"
        # octonions serialize as arrays of 8 rational strings
        prod = d["products"][4][4]
        assert prod == ["-1", "0", "0", "0", "0", "0", "0", "0"]
        assert all(Fraction(s) is not None for row in d["products"] for p in row for s in p)

    def test_products_equal_the_octonion_oracle(self, capsys):
        # the rendering before it read MULT_TABLE: the Fraction coordinates
        # of 64 products of basis Octonions
        units = [Octonion.basis(i) for i in range(8)]
        oracle = [[[str(c) for c in (x * y).coords] for y in units] for x in units]
        code, out, err = run_cli(capsys, "table")
        assert json.loads(out)["products"] == oracle


class TestDerivationsCommand:
    def test_payload(self, capsys):
        code, out, err = run_cli(capsys, "derivations")
        assert code == 0
        d = json.loads(out)
        assert d["dimension"] == 14
        assert len(d["basis"]) == 14
        assert len(d["basis"][0]) == 8 and len(d["basis"][0][0]) == 8
        assert d["structure_constants"], "no structure constants emitted"
        entry = d["structure_constants"][0]
        assert set(entry) == {"i", "j", "k", "c"}
        Fraction(entry["c"])  # parses as a rational


class TestRootsCommand:
    def test_payload(self, capsys):
        code, out, err = run_cli(capsys, "roots")
        assert code == 0
        d = json.loads(out)
        assert len(d["roots"]) == 12
        classes = [r["length_class"] for r in d["roots"]]
        assert classes.count("short") == 6 and classes.count("long") == 6
        lengths = {r["killing_sq_length"] for r in d["roots"]}
        assert lengths == {"1/12", "1/4"}


#: sha256 of stdout, pinned so that changes to the exact core cannot alter
#: the canonical bases, roots or census by a single byte
STDOUT_SHA256 = {
    "table": (["table"], "bb9a019d13de4a48486795879dd1e895f02e843db1adff2629436650ab71f412"),
    "roots": (["roots"], "71ac9aed53b3774f511b6e228fdef1ab662b8e7f456a83fbfa15dbef727c0e15"),
    "derivations": (
        ["derivations"],
        "d54e65b4408be1e819c9061f028b73467bd9f764804f116d9c66f323bc083a5f",
    ),
    "scan_radius6_csv": (
        ["scan", "--radius", "6", "--format", "csv"],
        "a5688d901db892a9d27127434459d5d88870c6146b263ac7f0d8ef9ce6b484fe",
    ),
    "scan_radius6_json": (
        ["scan", "--radius", "6", "--format", "json"],
        "fb20bafb03d5317339ebe34950b6eb0a83b05923a0e52439ec6e903010f10692",
    ),
    "scan_radius24_csv": (
        ["scan", "--radius", "24", "--format", "csv"],
        "6081d3853e9bcb971b9feeb17b7dd5bc2cf4984b239f353065c8b1328e8a8de1",
    ),
    "scan_radius24_json": (
        ["scan", "--radius", "24", "--format", "json"],
        "39f73d7e0d53ab6e88e67e154f6c33d2a60d99f55a919cf397747b58dcd7c600",
    ),
    "scan_radius200_csv": (
        ["scan", "--radius", "200", "--format", "csv"],
        "e7f51cab2b1bcc9c24b661869069a2cc7218f7cca00a6e755d7871c36657cc79",
    ),
}


@pytest.mark.parametrize("name", list(STDOUT_SHA256))
def test_stdout_is_byte_identical(capsys, name):
    argv, digest = STDOUT_SHA256[name]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


#: sha256 of the classify stdout for the eight tau of every orbit type
#: (scaled, Weyl-moved and rational), under both conventions, as text and
#: as --json: (tau, convention, json) -> digest
CLASSIFY_SHA256 = {
    ("0,0,0", "short=sp1xu1", False):
        "8748f82ce5a05bbc1d41a674d3601c4174a2ce2107caaf7725f0cf141707b6d1",
    ("0,0,0", "short=sp1xu1", True):
        "0936508ce4e788dac159748e4224e74719503b1f9f4a172660b60389103c016f",
    ("1,2,-3", "short=sp1xu1", False):
        "8836172fd80430f46d73805568e5ce0828103c31f6749ee6fa8d4fd999eed42a",
    ("1,2,-3", "short=sp1xu1", True):
        "502f3ca83caea9f5af88eca3fafa03e4b988e9d2e1ee889b7804dfd6ee975b23",
    ("1,0,-1", "short=sp1xu1", False):
        "e2a66ff216fa2c016ac4a24c7ea337aaf2cab7772114122bb07f712f2fb210d6",
    ("1,0,-1", "short=sp1xu1", True):
        "00397577e833b20acfdb34070b8eddd66dbded3e52316ae36ed266c42b11571d",
    ("1,1,-2", "short=sp1xu1", False):
        "bf472e4bbd392855d642c1368ff478b86534ae1d59fa6b2806fa7fd6d3483ac8",
    ("1,1,-2", "short=sp1xu1", True):
        "9a34a780bbc214ea6e54bfe92544745acdcfc7611d9b5728de76320137a1dae8",
    ("1/2,1/2,-1", "short=sp1xu1", False):
        "55474f6d8da950b94e0cbb1e0868f06c618a7b19c174dc51f3fb7275531a5b4c",
    ("1/2,1/2,-1", "short=sp1xu1", True):
        "c52a645b07e8fcc70042d32c51d4c3cb4123ff5f359e1db09a20fb05c331275a",
    ("3/7,-1/7,-2/7", "short=sp1xu1", False):
        "dc6de88387be49652ca719a4fe2086d32ca6bf0c46c3cc7db80345321926d87a",
    ("3/7,-1/7,-2/7", "short=sp1xu1", True):
        "275492c7dfaa4194f4abaad219e8ffb914d66d67377e302639f80d84111a6e28",
    ("2,-1,-1", "short=sp1xu1", False):
        "0f535f923d6cccaf386c9e6caaa1371081e45b60d9ed97e9dfe5241f8ad4f31d",
    ("2,-1,-1", "short=sp1xu1", True):
        "6283430ec82f791ac4338c1b9297d96a00c765cdbebc3aab7ecb4dbf907ba0c2",
    ("5,-5,0", "short=sp1xu1", False):
        "a84098b99ccaa544a779bb82524790627c5dd4036fc7139517d0857be02d718f",
    ("5,-5,0", "short=sp1xu1", True):
        "fa480775797ae24264db3ff2c58cc86205d98353ebad8ab67bdb57ba07465b4c",
    ("0,0,0", "short=u1xsp1", False):
        "a0689252b6905fe7db0dc079f693d02a001c512c631f6d952b9ea96ff081ecf8",
    ("0,0,0", "short=u1xsp1", True):
        "de71e255529eaea6b2928ac1d5956aece92f8c5be0adf34fc435d80b9f546453",
    ("1,2,-3", "short=u1xsp1", False):
        "4583ad758e2f9539885bdb340da710cbf795cff9d19a614b3550880df3742515",
    ("1,2,-3", "short=u1xsp1", True):
        "7e2473a40bda7c53a905aceab350002b52bef4a8cf8c6606139eda0fd618f075",
    ("1,0,-1", "short=u1xsp1", False):
        "e51333e71ea9c660cb1dc618f2bb25ef51e0c278a63c8e6f18d55fb540e4b027",
    ("1,0,-1", "short=u1xsp1", True):
        "12d3c68c3f195e197de2c60883940e5383e943ee1eed7287785b2eef1f55af24",
    ("1,1,-2", "short=u1xsp1", False):
        "08c7d91a8a9c176694c6ad3d4d85c4d162280797eded688b75a345b8d312a863",
    ("1,1,-2", "short=u1xsp1", True):
        "36877e5acbdf58e9046cf628a30affa660af9450b195788597b553112d02fd54",
    ("1/2,1/2,-1", "short=u1xsp1", False):
        "4a09a07748982b5bebed0748c1727b5695f3d14ef202eaaedf91b523c84208a3",
    ("1/2,1/2,-1", "short=u1xsp1", True):
        "348f4e35af921e54fd522e84ec013e49288d68c3a978e51329003eb3a49a28bf",
    ("3/7,-1/7,-2/7", "short=u1xsp1", False):
        "8ce71c55e86a18bbb72f338b57232ec8175b5f6b1230f82225903d9149869565",
    ("3/7,-1/7,-2/7", "short=u1xsp1", True):
        "ec776712da8d9e1d141b9e00f3fe869daae7ebab49110118a94e80cd1ac46839",
    ("2,-1,-1", "short=u1xsp1", False):
        "ced20bf181e5aff632ff1df97f6d3ad6d74fc79d6d1610916611a6d8fa6349df",
    ("2,-1,-1", "short=u1xsp1", True):
        "3e34f464c090ea4989fe7725a04fa9f7635db79406d35d3fe0b0bf23da085d5f",
    ("5,-5,0", "short=u1xsp1", False):
        "c9b07ac19a28ac61001b0e3f575df915879e8114d16e6ef574a7dd11297f6927",
    ("5,-5,0", "short=u1xsp1", True):
        "b9f0819360dad4000ff00b598014989afed7ac0a03fc65b6704684e0edc9a704",
}


@pytest.mark.parametrize("key", list(CLASSIFY_SHA256), ids=lambda k: f"{k[0]}-{k[1]}-{'json' if k[2] else 'text'}")
def test_classify_stdout_is_byte_identical(capsys, key):
    tau, convention, as_json = key
    argv = ["classify", f"--tau={tau}", f"--convention={convention}"] + ["--json"] * as_json
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_SHA256[key]


def test_check_stdout_is_byte_identical_and_exits_3(capsys):
    # criterion 6 stays red (it pins the gamma1 fixed subalgebra at
    # dimension 8; the true value is 6), so check exits 3
    code, out, err = run_cli(capsys, "check")
    assert code == 3
    assert hashlib.sha256(out.encode()).hexdigest() == "4a6e38ada1f165f25ef1abd39fd45576c6908f3ceec7f91335a8dad61097134a"

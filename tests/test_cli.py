import argparse
import hashlib
import json
from fractions import Fraction

import pytest

from g2orbits import cli, orbits
from g2orbits.cli import main
from g2orbits.orbits import Census
from test_checks import last_line_of


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
        code = (
            "from g2orbits import cli, derivations\n"
            'cli.main(["classify", "--tau=1,0,-1", "--json"])\n'
            "print(derivations.leibniz_system.cache_info().misses)"
        )
        assert last_line_of(code) == "0"

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

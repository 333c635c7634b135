"""CLI plumbing: parsing, exit codes, atomic writes, and format contracts."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import acawgn.cli as cli
from acawgn import DiscreteInput
from acawgn.cli import main, parse_grid
from acawgn.scan import ScanRecord


@pytest.fixture(scope="module")
def cold_cli_modules():
    """The names in sys.modules after ``import acawgn.cli`` in a fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import acawgn.cli; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, src],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return set(json.loads(done.stdout))


class TestColdImport:
    def test_cli_import_leaves_scipy_optimize_unloaded(self, cold_cli_modules):
        # scipy.optimize is imported lazily by the fixed-K step; loading it
        # at import time would add about 40% to the CLI's cold start.
        assert "scipy.optimize" not in cold_cli_modules

    @pytest.mark.parametrize("module", ["scipy.integrate", "scipy.signal"])
    def test_cli_import_leaves_module_unloaded(self, cold_cli_modules, module):
        # No command needs them (the exact TV uses closed-form CDFs); loading
        # either would add to every command's start-up time and memory.
        assert module not in cold_cli_modules


class TestParseGrid:
    def test_colon_syntax(self):
        assert parse_grid("2:8:1") == [2, 3, 4, 5, 6, 7, 8]
        assert parse_grid("0.5:2:0.5") == pytest.approx([0.5, 1.0, 1.5, 2.0])

    def test_comma_syntax(self):
        assert parse_grid("0.5,1,2") == [0.5, 1.0, 2.0]

    def test_rejects_bad_specs(self):
        for bad in ("", "1:2", "2:1:1", "1:2:-1", "3,2", "0,1", "a,b",
                    "1,inf", "1,nan", "1:inf:1", "nan:2:1", "1:2:nan", "1:1e300:1e-300"):
            with pytest.raises(cli.CliError):
                parse_grid(bad)


class TestBounds:
    def test_bounds_output(self, capsys):
        rc = main(["bounds", "--amplitude", "5", "--max-k", "4"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["A"] == 5.0
        assert payload["dytso_lower_bound"] == pytest.approx(2.6182022749268086)
        assert [b["K"] for b in payload["closed_form_bounds"]] == [1, 2, 3, 4]
        assert payload["closed_form_bounds"][0]["bound"] == pytest.approx(
            0.25 * math.exp(-2 * math.pi**2 / 25.0)
        )

    def test_usage_errors_exit_1(self, capsys):
        assert main(["bounds"]) == 1
        assert main(["no-such-command"]) == 1
        assert main(["bounds", "--amplitude", "-3"]) == 1
        capsys.readouterr()


class TestSolveCli:
    def test_solve_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["solve", "--amplitude", "0.8", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["K"] == 2
        assert payload["converged"] is True
        assert payload["unit"] == "nats"
        assert payload["input"]["points"] == pytest.approx([-0.8, 0.8], abs=1e-6)
        capsys.readouterr()

    def test_bits_conversion_exact(self, tmp_path):
        out_n = tmp_path / "nats.json"
        out_b = tmp_path / "bits.json"
        assert main(["solve", "--amplitude", "0.8", "--out", str(out_n)]) == 0
        assert main(["solve", "--amplitude", "0.8", "--bits", "--out", str(out_b)]) == 0
        nats = json.loads(out_n.read_text())
        bits = json.loads(out_b.read_text())
        assert bits["capacity_nats"] == nats["capacity_nats"]
        expected = nats["capacity_nats"] / math.log(2.0)
        assert abs(bits["capacity_bits"] - expected) <= 1e-15 * abs(expected)

    def test_out_dir_missing_is_io_error(self, tmp_path, capsys):
        rc = main(["solve", "--amplitude", "0.8",
                   "--out", str(tmp_path / "nope" / "x.json")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_unconverged_solve_exits_2(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        rc = main(["solve", "--amplitude", "5", "--max-k", "2", "--out", str(out)])
        assert rc == 2
        assert json.loads(out.read_text())["converged"] is False
        assert "did not certify" in capsys.readouterr().err


class TestCertifyCli:
    def test_round_trip_solve_then_certify(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(["solve", "--amplitude", "0.8", "--out", str(report_path)]) == 0
        # the solve report is accepted unchanged
        rc = main(["certify", "--input", str(report_path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["K"] == 2
        assert payload["measured_tv"] is None

    def test_bare_input_accepted(self, tmp_path, capsys):
        pi = DiscreteInput(A=2.0, locations=(-2.0, 0.0, 2.0), weights=(0.4, 0.2, 0.4))
        path = tmp_path / "pi.json"
        path.write_text(pi.to_json())
        rc = main(["certify", "--input", str(path), "--measure-tv"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["K"] == 3
        assert payload["measured_tv"] >= payload["maxnorm_bound"] - 1e-8

    def test_bad_input_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"nonsense\": 1}")
        assert main(["certify", "--input", str(path)]) == 1
        assert main(["certify", "--input", str(tmp_path / "missing.json")]) == 1
        capsys.readouterr()


class TestScanCli:
    def test_deterministic_csv(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["scan", "--grid", "0.5,0.8", "--seed", "11"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "scan.json"
        assert main(["scan", "--grid", "0.5,0.8", "--format", "json",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert [row["K"] for row in payload] == [2, 2]

    def test_column_extract(self, tmp_path):
        out = tmp_path / "cols.dat"
        assert main(["scan", "--grid", "0.5,0.8", "--columns", "A,tv_uniform",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "# A tv_uniform"
        assert len(lines) == 3
        for line in lines[1:]:
            a, tv = (float(tok) for tok in line.split())
            assert 0.0 <= tv <= 1.0

    def test_unknown_column_rejected(self, capsys):
        assert main(["scan", "--grid", "0.5,0.8", "--columns", "A,bogus"]) == 1
        capsys.readouterr()

    def test_unconverged_scan_exits_2(self, tmp_path, monkeypatch, capsys):
        bad = ScanRecord(A=1.0, K=2, capacity_nats=0.1, tv_uniform=0.2,
                         bulk_dev=math.nan, dytso_lb=1.0, thm3_bound=0.01,
                         maxnorm_bound=0.001, status="unconverged")
        monkeypatch.setattr(cli, "scan", lambda *a, **k: [bad])
        rc = main(["scan", "--grid", "1.0", "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert "did not certify" in capsys.readouterr().err


class TestProbeCli:
    def test_probe_payload(self, tmp_path, monkeypatch, capsys):
        # numerics are covered in the scan tests; here only the wiring
        from acawgn.solver import SolveReport

        pi = DiscreteInput(A=4.0, locations=(-4.0, 0.0, 4.0), weights=(0.4, 0.2, 0.4))
        fake = SolveReport(A=4.0, input=pi, capacity_nats=1.0, k=3,
                           kkt_support=1e-9, kkt_global=1e-9, converged=True,
                           history=(), wall_time_s=0.0, eps=1e-6, seed=0)
        monkeypatch.setattr(cli, "solve_capacity", lambda *a, **k: fake)
        monkeypatch.setattr(cli, "theorem2_probe",
                            lambda pi: (0.01, 0.02, 0.01))
        rc = main(["probe", "--amplitude", "4"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["B"] == pytest.approx(2.0)
        assert payload["total_tv"] == pytest.approx(0.04)

    def test_unconverged_probe_exits_2(self, monkeypatch, capsys):
        from acawgn.solver import SolveReport

        pi = DiscreteInput(A=4.0, locations=(0.0,), weights=(1.0,))
        fake = SolveReport(A=4.0, input=pi, capacity_nats=0.5, k=1,
                           kkt_support=0.1, kkt_global=0.1, converged=False,
                           history=(), wall_time_s=0.0, eps=1e-6, seed=0)
        monkeypatch.setattr(cli, "solve_capacity", lambda *a, **k: fake)
        monkeypatch.setattr(cli, "theorem2_probe",
                            lambda pi: (0.1, 0.1, 0.1))
        assert main(["probe", "--amplitude", "4"]) == 2
        capsys.readouterr()


class TestAmplitudeValidation:
    @pytest.fixture(autouse=True)
    def no_solves(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solved before the arguments were validated")

        monkeypatch.setattr(cli, "solve_capacity", refuse)
        monkeypatch.setattr(cli, "scan", refuse)

    @pytest.mark.parametrize("argv", [
        "probe --amplitude 2",
        "probe --amplitude -1",
        "probe --amplitude nan",
        "solve --amplitude 0",
        "solve --amplitude nan",
        "solve --amplitude inf",
        "bounds --amplitude nan",
        "bounds --amplitude inf",
        "scan --grid 1,inf",
        "scan --grid 1,nan",
        "solve --amplitude 1 --eps -1",
        "solve --amplitude 1 --max-k 0",
        "scan --grid 1 --eps -1",
        "bounds --amplitude 1e-300",
    ])
    def test_rejected_before_any_solve(self, argv, capsys):
        assert main(argv.split()) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestQuadTolEnv:
    def test_env_no_longer_read(self, monkeypatch, capsys):
        # ACAWGN_QUAD_TOL tuned the adaptive TV integrals, which are gone; a
        # value that used to be rejected now changes nothing
        monkeypatch.setenv("ACAWGN_QUAD_TOL", "not-a-float")
        assert main(["bounds", "--amplitude", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["A"] == 2.0

    def test_atomic_write_no_partial_file(self, tmp_path):
        out = tmp_path / "data.json"
        assert main(["bounds", "--amplitude", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["A"] == 2.0
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []

    def test_new_out_file_gets_the_plain_write_mode(self, tmp_path):
        # 0o666 less the umask, as open() gives, not mkstemp's 0o600
        umask = os.umask(0o022)
        try:
            out = tmp_path / "b.json"
            assert main(["bounds", "--amplitude", "5", "--out", str(out)]) == 0
            plain = tmp_path / "plain.json"
            plain.write_text("{}")
        finally:
            os.umask(umask)
        assert oct(out.stat().st_mode & 0o777) == oct(plain.stat().st_mode & 0o777) == "0o644"

    def test_replaced_out_file_keeps_its_mode(self, tmp_path):
        out = tmp_path / "b.json"
        out.write_text("old")
        out.chmod(0o640)
        assert main(["bounds", "--amplitude", "5", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["A"] == 5.0
        assert oct(out.stat().st_mode & 0o777) == "0o640"

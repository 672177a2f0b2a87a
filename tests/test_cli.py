"""Command line behavior: reports, flags, exit codes, determinism."""

from __future__ import annotations

import json
import math
import re

import pytest

from stratopt import cli

from helpers import DESK_CSV


@pytest.fixture()
def desk_csv(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text(DESK_CSV)
    return str(path)


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTextReport:
    def test_worked_example(self, capsys, desk_csv):
        code, out, err = run_cli(
            capsys, "--input", desk_csv, "--strata", "2", "--sample-size", "3"
        )
        assert code == 0
        assert err == ""
        assert "N           9" in out
        assert "|I|         5" in out
        assert "CV (%)      13.57" in out
        assert "boundaries  4" in out
        assert re.search(r"Nh\s+3\s+6", out)
        assert re.search(r"nh\s+1\s+2", out)

    def test_single_stratum_has_no_boundaries(self, capsys, desk_csv):
        code, out, _ = run_cli(
            capsys, "--input", desk_csv, "--strata", "1", "--sample-size", "3"
        )
        assert code == 0
        assert "boundaries  -" in out

    def test_neyman_row(self, capsys, desk_csv):
        """For the optimal (3, 6) split the dispersion-weighted shares are
        3 * 3*sqrt(4/3) / (3*sqrt(4/3) + 6*sqrt(26/3)) = 0.492 and 2.508."""
        code, out, _ = run_cli(
            capsys,
            "--input", desk_csv, "--strata", "2", "--sample-size", "3", "--neyman",
        )
        assert code == 0
        assert re.search(r"nh neyman\s+0\.492\s+2\.508", out)


class TestJsonReport:
    def test_schema_and_values(self, capsys, desk_csv):
        code, out, _ = run_cli(
            capsys, "--input", desk_csv, "--strata", "2", "--sample-size", "3", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == [
            "N", "K", "L", "n", "fpc", "boundaries", "strata",
            "variance", "cv", "unit_cost", "elapsed_s", "oracle_checked",
        ]
        assert payload["N"] == 9
        assert payload["K"] == 5
        assert payload["L"] == 2
        assert payload["n"] == 3
        assert payload["fpc"] is True
        assert payload["boundaries"] == [4.0]
        assert [s["N_h"] for s in payload["strata"]] == [3, 6]
        assert [s["n_h"] for s in payload["strata"]] == [1, 2]
        assert payload["strata"][0]["S2_h"] == pytest.approx(4 / 3, rel=1e-12)
        assert payload["strata"][0]["n_h_frac"] == pytest.approx(1.0)
        assert payload["variance"] == pytest.approx(112.0, rel=1e-12)
        assert payload["cv"] == pytest.approx(13.568, abs=5e-4)
        assert payload["unit_cost"] == pytest.approx(56.0, rel=1e-12)
        assert payload["oracle_checked"] is False
        assert payload["elapsed_s"] >= 0.0

    def test_deterministic_up_to_elapsed(self, capsys, desk_csv):
        args = ("--input", desk_csv, "--strata", "2", "--sample-size", "3", "--json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        strip = lambda text: re.sub(r'"elapsed_s": [^,\n]+', '"elapsed_s": X', text)
        assert strip(first) == strip(second)
        assert first.count("elapsed_s") == 1

    def test_no_fpc(self, capsys, desk_csv):
        code, out, _ = run_cli(
            capsys,
            "--input", desk_csv, "--strata", "2", "--sample-size", "3",
            "--json", "--no-fpc",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["fpc"] is False
        assert payload["variance"] == pytest.approx(168.0, rel=1e-12)

    def test_oracle_check_confirms(self, capsys, desk_csv):
        code, out, err = run_cli(
            capsys,
            "--input", desk_csv, "--strata", "2", "--sample-size", "3",
            "--json", "--check-oracle",
        )
        assert code == 0
        assert err == ""
        assert json.loads(out)["oracle_checked"] is True

    def test_oracle_cap_skips_check(self, capsys, desk_csv):
        code, out, err = run_cli(
            capsys,
            "--input", desk_csv, "--strata", "2", "--sample-size", "3",
            "--json", "--check-oracle", "--oracle-cap", "1",
        )
        assert code == 0
        assert json.loads(out)["oracle_checked"] is False
        assert "skipped" in err

    def test_neyman_field(self, capsys, desk_csv):
        code, out, _ = run_cli(
            capsys,
            "--input", desk_csv, "--strata", "2", "--sample-size", "3",
            "--json", "--neyman",
        )
        assert code == 0
        payload = json.loads(out)
        weight_1 = 3 * math.sqrt(4 / 3)
        weight_2 = 6 * math.sqrt(26 / 3)
        expected = [3 * w / (weight_1 + weight_2) for w in (weight_1, weight_2)]
        assert payload["neyman"] == pytest.approx(expected, rel=1e-9)


class TestColumnsAndDelimiters:
    def test_y_column(self, capsys, tmp_path):
        path = tmp_path / "xy.csv"
        path.write_text("x,y\n" + "".join(f"{x},{x * 10}\n" for x in (2, 4, 4, 8, 10, 10, 10, 15, 15)))
        code, out, _ = run_cli(
            capsys,
            "--input", str(path), "--strata", "2", "--sample-size", "3",
            "--y-col", "y", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["boundaries"] == [4.0]
        assert payload["variance"] == pytest.approx(11200.0, rel=1e-9)

    def test_tab_separated(self, capsys, tmp_path):
        path = tmp_path / "pop.tsv"
        path.write_text("x\ty\n" + "".join(f"{x}\t{x}\n" for x in (2, 4, 4, 8, 10, 10, 10, 15, 15)))
        code, out, _ = run_cli(
            capsys,
            "--input", str(path), "--strata", "2", "--sample-size", "3",
            "--tab", "--y-col", "y", "--json",
        )
        assert code == 0
        assert json.loads(out)["variance"] == pytest.approx(112.0, rel=1e-12)

    def test_utf8_byte_order_mark_before_header(self, capsys, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text(DESK_CSV, encoding="utf-8-sig")
        code, out, _ = run_cli(
            capsys, "--input", str(path), "--strata", "2", "--sample-size", "3", "--json"
        )
        assert code == 0
        assert json.loads(out)["boundaries"] == [4.0]


class TestExitCodes:
    def test_missing_file_exits_2_with_no_output(self, capsys):
        code, out, err = run_cli(
            capsys, "--input", "/nonexistent/pop.csv", "--strata", "2", "--sample-size", "3"
        )
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_missing_column_exits_2(self, capsys, desk_csv):
        code, out, err = run_cli(
            capsys,
            "--input", desk_csv, "--strata", "2", "--sample-size", "3",
            "--x-col", "size",
        )
        assert code == 2
        assert out == ""
        assert "size" in err

    def test_unparsable_cell_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x\n1\noops\n")
        code, out, err = run_cli(
            capsys, "--input", str(path), "--strata", "1", "--sample-size", "1"
        )
        assert code == 2
        assert "row 3" in err

    @pytest.mark.parametrize(
        "rows,strata",
        [
            pytest.param(
                ("1.1e154", "1.11e154", "1.12e154", "1.13e154"), "2",
                id="prefix-of-y2",
            ),
            # every prefix is finite, but a squared segment total of y is not
            pytest.param(
                ("6e153", "6.01e153", "6.02e153", "6.03e153"), "1",
                id="segment-total-L1",
            ),
            pytest.param(
                ("4e153", "4.01e153", "4.02e153", "4.03e153", "4.04e153", "4.05e153"), "2",
                id="segment-total-L2",
            ),
        ],
    )
    def test_float_overflow_exits_2(self, capsys, tmp_path, rows, strata):
        path = tmp_path / "huge.csv"
        path.write_text("x\n" + "\n".join(rows) + "\n")
        code, out, err = run_cli(
            capsys, "--input", str(path), "--strata", strata, "--sample-size", "2"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: y values too large") and err.count("\n") == 1

    def test_header_only_exits_2(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x\n")
        code, _, _ = run_cli(
            capsys, "--input", str(path), "--strata", "1", "--sample-size", "1"
        )
        assert code == 2

    def test_too_few_distinct_values_exits_3(self, capsys, desk_csv):
        code, out, err = run_cli(
            capsys, "--input", desk_csv, "--strata", "3", "--sample-size", "3"
        )
        assert code == 3
        assert out == ""
        assert "distinct" in err

    def test_oversized_sample_exits_3(self, capsys, desk_csv):
        code, _, err = run_cli(
            capsys, "--input", desk_csv, "--strata", "2", "--sample-size", "10"
        )
        assert code == 3
        assert "sample size" in err

    def test_zero_strata_exits_3(self, capsys, desk_csv):
        code, _, _ = run_cli(
            capsys, "--input", desk_csv, "--strata", "0", "--sample-size", "3"
        )
        assert code == 3

    def test_oracle_disagreement_exits_4(self, capsys, desk_csv, monkeypatch):
        """If the exhaustive check ever disagreed, the run must fail loudly."""
        from dataclasses import replace

        real = cli.brute_force_solve

        def doctored(ft, spec, cap):
            solution = real(ft, spec, cap)
            return replace(solution, boundaries=(8.0,))

        monkeypatch.setattr(cli, "brute_force_solve", doctored)
        code, out, err = run_cli(
            capsys,
            "--input", desk_csv, "--strata", "2", "--sample-size", "3",
            "--check-oracle",
        )
        assert code == 4
        assert out == ""
        assert "disagrees" in err

    def test_zero_sample_stratum_warns_on_stderr(self, capsys, tmp_path):
        path = tmp_path / "skew.csv"
        rows = ["x"] + ["1"] * 50 + ["2"] * 48 + ["3", "4"]
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(
            capsys, "--input", str(path), "--strata", "2", "--sample-size", "1"
        )
        assert code == 0
        assert "sample size of 0" in err
        assert "N           100" in out

"""CLI behaviour: exit codes, formats, determinism, JSON round-trip."""

import json

import pytest
from click.testing import CliRunner

from expwell.cli import fmt_float, json_dumps, main


@pytest.fixture()
def runner():
    return CliRunner()


# ----------------------------------------------------------- exit codes

def test_unknown_flag_exits_2(runner):
    res = runner.invoke(main, ["spectrum", "--v0", "25", "--beta", "1",
                               "--frobnicate"])
    assert res.exit_code == 2
    assert "frobnicate" in res.output


def test_missing_required_parameter_exits_2(runner):
    res = runner.invoke(main, ["spectrum", "--v0", "25"])
    assert res.exit_code == 2
    assert "beta" in res.output.lower()


def test_non_positive_parameter_exits_2_with_distinct_message(runner):
    res = runner.invoke(main, ["spectrum", "--v0", "-3", "--beta", "1"])
    assert res.exit_code == 2
    assert "must be positive" in res.output


def test_no_bound_states_is_success(runner):
    res = runner.invoke(main, ["spectrum", "--v0", "1", "--beta", "1"])
    assert res.exit_code == 0
    assert "no bound states" in res.output


def test_wavefunction_state_out_of_range_exits_2(runner):
    res = runner.invoke(main, ["wavefunction", "--v0", "25", "--beta", "1",
                               "--state", "7"])
    assert res.exit_code == 2
    assert "--state" in res.output


# ------------------------------------------------------------- spectrum

def test_spectrum_json_three_states(runner):
    res = runner.invoke(main, ["spectrum", "--v0", "25", "--beta", "1",
                               "--format", "json"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert set(doc) == {"params", "states", "warnings"}
    assert doc["params"]["z0"] == 10.0
    assert len(doc["states"]) == 3
    nus = [s["nu"] for s in doc["states"]]
    assert abs(nus[0] - 6.1) < 0.1 and abs(nus[1] - 3.2) < 0.1 \
        and abs(nus[2] - 0.9) < 0.1
    for s in doc["states"]:
        assert set(s) == {"n", "nu", "alpha", "energy", "energy_numerov",
                          "energy_fd"}
        assert abs(s["energy"] + (s["nu"] / 2.0) ** 2) < 1e-12
        assert abs(s["energy_numerov"] - s["energy"]) < 1e-5 * abs(s["energy"])
        assert abs(s["energy_fd"] - s["energy"]) < 1e-5 * abs(s["energy"])


def test_spectrum_warns_on_oracle_value_deviation(runner):
    # V0=287: the 45/beta box squeezes FD's barely-bound top level (nu =
    # 0.068) to 44% off; Numerov's is 8.2e-9 off, inside the 1e-5 of verify
    res = runner.invoke(main, ["spectrum", "--v0", "287", "--beta", "1",
                               "--format", "json"])
    assert res.exit_code == 0
    warnings = json.loads(res.output)["warnings"]
    assert len(warnings) == 1
    assert warnings[0].startswith("finite differences level n=10 deviates")
    assert "4.39e-01" in warnings[0]
    v25 = runner.invoke(main, ["spectrum", "--v0", "25", "--beta", "1",
                               "--format", "json"])
    assert json.loads(v25.output)["warnings"] == []


def test_spectrum_json_round_trips_to_identical_bytes(runner):
    res = runner.invoke(main, ["spectrum", "--v0", "25", "--beta", "1",
                               "--format", "json"])
    assert res.exit_code == 0
    assert json_dumps(json.loads(res.output)) == res.output


def test_spectrum_output_is_deterministic(runner):
    args = ["spectrum", "--v0", "6", "--beta", "1", "--format", "json"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    assert out1 == out2


def test_spectrum_csv_header(runner):
    res = runner.invoke(main, ["spectrum", "--v0", "6", "--beta", "1",
                               "--format", "csv"])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == ("n,nu,alpha,energy,energy_numerov,energy_fd,"
                        "rel_dev_numerov,rel_dev_fd")
    assert len(lines) == 2
    assert res.output.endswith("\n")


def test_spectrum_output_file(runner, tmp_path):
    target = tmp_path / "spec.json"
    res = runner.invoke(main, ["spectrum", "--v0", "6", "--beta", "1",
                               "--format", "json", "--output", str(target)])
    assert res.exit_code == 0
    doc = json.loads(target.read_text())
    assert len(doc["states"]) == 1


# ---------------------------------------------------------- wavefunction

def test_wavefunction_csv_layout(runner):
    res = runner.invoke(main, ["wavefunction", "--v0", "25", "--beta", "1",
                               "--state", "0", "--r-max", "10",
                               "--points", "11", "--format", "csv"])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "r,u,R"
    assert len(lines) == 12
    first = lines[1].split(",")
    assert first[0] == "0.0"
    assert first[2] == ""  # R undefined at r = 0
    r5 = lines[6].split(",")
    assert abs(float(r5[2]) - float(r5[1]) / float(r5[0])) < 1e-12


def test_wavefunction_json_normalized(runner):
    res = runner.invoke(main, ["wavefunction", "--v0", "25", "--beta", "1",
                               "--state", "1", "--points", "201",
                               "--format", "json"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["state"]["n"] == 1
    assert doc["table"]["R"][0] is None
    assert doc["state"]["norm_c"] > 0.0
    # crude trapezoid on the emitted grid: normalized to ~1
    import numpy as np
    r = np.array(doc["table"]["r"])
    u = np.array(doc["table"]["u"])
    assert abs(np.trapezoid(u * u, r) - 1.0) < 1e-3


# ----------------------------------------------------------- mellin-check

def test_mellin_check_explicit_rho(runner):
    res = runner.invoke(main, ["mellin-check", "--rho", "2.5",
                               "--format", "json"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    table = doc["tables"][0]
    assert table["nu"] == 5.0 and table["a"] == 2.0 and table["g0"] == 0.4
    for row in table["rows"]:
        assert row["abs_diff"] <= 1e-12 * max(1.0, abs(row["difference_form"]))


def test_mellin_check_from_potential(runner):
    res = runner.invoke(main, ["mellin-check", "--v0", "25", "--beta", "1",
                               "--format", "json"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert len(doc["tables"]) == 3


def test_mellin_check_requires_rho_or_potential(runner):
    res = runner.invoke(main, ["mellin-check"])
    assert res.exit_code == 2


def test_mellin_check_deterministic(runner):
    args = ["mellin-check", "--rho", "1.3", "--format", "csv"]
    assert runner.invoke(main, args).output == runner.invoke(main, args).output


# ----------------------------------------------------------------- verify

def test_verify_quick_passes_and_prints_defaults(runner):
    res = runner.invoke(main, ["verify", "--quick"])
    assert res.exit_code == 0
    assert "energy_tol = 1e-11" in res.output
    assert ("quadrature = t_max=200.0 n_avg=16 avg_spacing=3.141592653589793"
            " n_graded=96\n") in res.output
    assert res.output.count("PASS") >= 8
    assert "FAIL" not in res.output


# ------------------------------------------------------------- formatting

def test_fmt_float_shortest_roundtrip():
    assert fmt_float(0.5) == "0.5"
    assert fmt_float(1.0) == "1.0"
    assert float(fmt_float(0.1)) == 0.1


def test_fmt_float_caps_at_15_digits():
    s = fmt_float(1.0 / 3.0)
    digits = [c for c in s if c.isdigit()]
    assert len([d for d in digits]) <= 16  # leading 0 plus 15 significant
    assert s == "0.333333333333333"


def test_fmt_float_idempotent_under_parse():
    import numpy as np
    rng = np.random.default_rng(31)
    for _ in range(500):
        x = float(rng.normal() * 10.0 ** rng.integers(-12, 12))
        s = fmt_float(x)
        assert fmt_float(float(s)) == s

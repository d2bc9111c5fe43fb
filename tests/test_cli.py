import json
import math
import time

import pytest

from invbell.cli import MAX_SAMPLES, build_parser, main, resolve_config


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- happy paths


def test_hardy_default_table(capsys):
    code, out, _ = run_cli(capsys, "hardy")
    assert code == 0
    assert "verdict: CONTRADICTION" in out
    assert "f1 = " in out and "[established]" in out


def test_hardy_degenerate_choice_prob(capsys):
    code, out, _ = run_cli(capsys, "hardy", "--choice-prob", "1.0")
    assert code == 0
    assert "verdict: CONSISTENT" in out
    assert "NOT ESTABLISHED" in out


def test_hardy_empirical_mode(capsys):
    code, out, _ = run_cli(
        capsys, "hardy", "--samples", "200000", "--seed", "7", "--epsilon", "0.01", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["verdict"] == "CONTRADICTION"


def test_rho_diagonal(capsys):
    code, out, _ = run_cli(capsys, "rho", "--diagonal")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q1 q2 q3 q4 probability"
    assert len(lines) == 17
    assert lines[1] == "+1 +1 +1 +1 0.12500000000000003" or lines[1] == "+1 +1 +1 +1 0.125"


def test_rho_coin_mode_same_diagonal(capsys):
    _, coherent, _ = run_cli(capsys, "rho", "--diagonal", "--format", "json")
    _, coin, _ = run_cli(capsys, "rho", "--diagonal", "--format", "json", "--mode", "coin")
    rows_a = json.loads(coherent)["results"]["diagonal"]
    rows_b = json.loads(coin)["results"]["diagonal"]
    for a, b in zip(rows_a, rows_b):
        assert a["probability"] == pytest.approx(b["probability"], abs=1e-12)


def test_rho_full_matrix_csv(capsys):
    code, out, _ = run_cli(capsys, "rho", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "row,col,real,imag"
    assert len(lines) == 257


def test_nosignal_default(capsys):
    code, out, _ = run_cli(capsys, "nosignal")
    assert code == 0
    assert "delta_q3 = 0.5" in out
    assert "verdict: SIGNALING" in out


def test_chsh_optimal_angles(capsys):
    code, out, _ = run_cli(
        capsys, "chsh", "--angles", "0,1.5707963,-0.7853981,0.7853981", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["chsh"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-5)


def test_lhv_default_verdict(capsys):
    code, out, _ = run_cli(capsys, "lhv", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["verdict"] == "signaling"
    assert payload["results"]["delta_q3"] == pytest.approx(0.5, abs=1e-12)


def test_sample_counts(capsys):
    code, out, _ = run_cli(capsys, "sample", "--samples", "1000", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q1,q2,q3,q4,count"
    assert len(lines) == 17
    total = sum(int(line.split(",")[-1]) for line in lines[1:])
    assert total == 1000


# ------------------------------------------------------------------ exit codes


def test_sample_requires_positive_count(capsys):
    code, _, err = run_cli(capsys, "sample", "--samples", "0")
    assert code == 2
    assert "samples" in err


def test_sample_requires_samples_flag(capsys):
    code, _, err = run_cli(capsys, "sample")
    assert code == 2


def test_samples_above_cap_fail_fast(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "sample", "--samples", "100000000000")
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out == ""
    assert f"samples must be <= {MAX_SAMPLES}" in err


def test_samples_at_cap_are_accepted():
    cfg = resolve_config(build_parser().parse_args(["sample", "--samples", str(MAX_SAMPLES)]))
    assert cfg.samples == MAX_SAMPLES


def test_negative_seed_is_reduced_mod_2_64(capsys):
    code, out, _ = run_cli(capsys, "sample", "--samples", "5", "--seed", "-1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["seed"] == payload["results"]["seed"] == 2**64 - 1


def test_bad_mode_is_config_error(capsys):
    code, _, err = run_cli(capsys, "hardy", "--mode", "telepathic")
    assert code == 2
    assert "mode" in err


def test_bad_epsilon_is_config_error(capsys):
    code, _, _ = run_cli(capsys, "hardy", "--epsilon", "0.75")
    assert code == 2


def test_missing_support_exit_code(capsys):
    # a single draw leaves three (q1, q2) blocks empty
    code, _, err = run_cli(capsys, "nosignal", "--samples", "1")
    assert code == 3
    assert "support" in err or "probability zero" in err


EMPTY_FIELD_ANGLES = ["0,,1,2,3", "0,1,2,3,", ",0,1,2,3", "0, ,2,3", "0,,1,2", ",,,"]


@pytest.mark.parametrize("angles", EMPTY_FIELD_ANGLES)
def test_angles_with_an_empty_field_are_rejected(capsys, angles):
    code, out, err = run_cli(capsys, "chsh", f"--angles={angles}")
    assert code == 2
    assert out == ""
    assert err == f"config error: angles need exactly 4 comma-separated values, got {angles!r}\n"


@pytest.mark.parametrize("angles", EMPTY_FIELD_ANGLES)
def test_config_file_angles_with_an_empty_field_are_rejected(capsys, tmp_path, angles):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"angles={angles}\n")
    code, out, err = run_cli(capsys, "chsh", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err == f"config error: angles need exactly 4 comma-separated values, got {angles!r}\n"


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["entangle"])
    assert exc.value.code == 2


# ---------------------------------------------------------------- config files


def test_config_file_values_are_used(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode=coin\nchoice-prob=0.25\nformat=json\n# comment line\n\n")
    code, out, _ = run_cli(capsys, "rho", "--diagonal", "--config", str(cfg))
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["mode"] == "coin"
    assert payload["config"]["choice_prob"] == 0.25


def test_flags_override_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode=coin\nformat=json\n")
    code, out, _ = run_cli(capsys, "rho", "--diagonal", "--config", str(cfg), "--mode", "coherent")
    assert code == 0
    assert json.loads(out)["config"]["mode"] == "coherent"


def test_config_file_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("flux_capacitance=1.21\n")
    code, _, err = run_cli(capsys, "hardy", "--config", str(cfg))
    assert code == 2
    assert "unknown key" in err


def test_config_file_missing(capsys):
    code, _, err = run_cli(capsys, "hardy", "--config", "/nonexistent/run.cfg")
    assert code == 2


def test_config_file_malformed_line(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just a line without equals\n")
    code, _, _ = run_cli(capsys, "hardy", "--config", str(cfg))
    assert code == 2


def test_repeated_calls_reproduce_first_bytes(capsys, tmp_path):
    """main() shares one parser per process; no call may leak state into the next."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode=coin\nchoice-prob=0.25\nseed=5\nformat=json\ndiagonal=true\n")
    argvs = [
        ["rho", "--diagonal"],
        ["rho"],
        ["rho", "--config", str(cfg)],
        ["rho", "--diagonal", "--format", "csv"],
        ["rho", "--config", str(cfg), "--format", "table"],
        ["sample", "--samples", "50", "--config", str(cfg)],
        ["sample", "--samples", "50"],
    ]
    first = [run_cli(capsys, *argv) for argv in argvs]
    assert "imaginary part:" in first[1][1] and "imaginary part:" not in first[0][1]
    assert json.loads(first[2][1])["config"]["diagonal"] is True
    for _ in range(2):
        assert [run_cli(capsys, *argv) for argv in argvs] == first
        assert [run_cli(capsys, *argv) for argv in reversed(argvs)] == first[::-1]


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


# -------------------------------------------------------------- output contracts


@pytest.mark.parametrize(
    "argv",
    [
        ["hardy", "--format", "json"],
        ["rho", "--diagonal", "--format", "json"],
        ["rho", "--format", "json"],
        ["nosignal", "--format", "json"],
        ["chsh", "--format", "json"],
        ["lhv", "--format", "json"],
        ["sample", "--samples", "500", "--format", "json"],
    ],
)
def test_json_round_trips_to_identical_bytes(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    reparsed = json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert reparsed == out


@pytest.mark.parametrize(
    "argv",
    [
        ["hardy"],
        ["nosignal", "--format", "csv"],
        ["sample", "--samples", "2000", "--format", "json"],
        ["lhv", "--format", "json"],
    ],
)
def test_identical_config_gives_identical_bytes(capsys, argv):
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_table_and_json_agree_on_hardy_values(capsys):
    _, table_out, _ = run_cli(capsys, "hardy")
    _, json_out, _ = run_cli(capsys, "hardy", "--format", "json")
    results = json.loads(json_out)["results"]
    for fact in results["facts"]:
        assert f"= {repr(fact['value'])}" in table_out
    assert results["verdict"] in table_out


def test_table_and_json_agree_on_chsh_values(capsys):
    _, table_out, _ = run_cli(capsys, "chsh")
    _, json_out, _ = run_cli(capsys, "chsh", "--format", "json")
    results = json.loads(json_out)["results"]
    assert f"chsh = {repr(results['chsh'])}" in table_out
    for key, value in results["correlators"].items():
        assert f"{key} = {repr(value)}" in table_out


def test_csv_and_json_agree_on_sample_counts(capsys):
    _, csv_out, _ = run_cli(capsys, "sample", "--samples", "800", "--format", "csv")
    _, json_out, _ = run_cli(capsys, "sample", "--samples", "800", "--format", "json")
    rows = json.loads(json_out)["results"]["counts"]
    csv_counts = [int(line.split(",")[-1]) for line in csv_out.strip().splitlines()[1:]]
    assert csv_counts == [row["count"] for row in rows]

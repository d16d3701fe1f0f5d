"""Command-line interface: subcommands, flags, exit codes, determinism."""

import hashlib
import json
import subprocess
import sys

import pytest

from giftex import harness
from giftex.behavior import BehaviorParams, feature_set
from giftex.cli import main
from giftex.counting import count_trajectories
from giftex.harness import ExperimentConfig, game_rng, game_trace, play_game
from giftex.valuation import ModelKind


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- count -----------------------------------------------------------------------

def test_count_five_players(capsys):
    # No cap above n - 1 binds, so a huge one is the closed form, at once.
    for extra in ([], ["--lifetime", "1000000"]):
        code, out, _ = run_cli(capsys, "count", "--players", "5", *extra)
        assert code == 0 and out.strip() == "1248000"


def test_count_with_swap(capsys):
    # The n final-swap choices multiply every route's count alike; the
    # closed-form numbers for n = 1, 3, 5 are in test_counting.py.
    for argv, expected in ((["--players", "3"], 180),
                           (["--players", "3", "--lifetime", "1"], 3 * 42),
                           (["--players", "3", "--oracle"], 180)):
        code, out, _ = run_cli(capsys, "count", *argv, "--with-swap")
        assert code == 0 and out.strip() == str(expected)


def test_count_large_n_prints_exact_decimal(capsys):
    code, out, _ = run_cli(capsys, "count", "--players", "8")
    assert code == 0 and out.strip() == "3665074910515200000"
    assert "e" not in out and "E" not in out


def test_count_beyond_the_int_string_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, _ = run_cli(capsys, "count", "--players", "100")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        expected = str(count_trajectories(100)) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)
    assert out == expected and len(out) == 6985
    assert hashlib.sha256(out.encode()).hexdigest().startswith("3eb5dca7")


def test_count_lifetime(capsys):
    code, out, _ = run_cli(capsys, "count", "--players", "3", "--lifetime", "1")
    assert code == 0 and out.strip() == "42"


def test_count_capped_sixteen_players(capsys):
    code, out, _ = run_cli(capsys, "count", "--players", "16", "--lifetime", "3")
    assert code == 0 and out.strip() == str(count_trajectories(16, 3))


def test_count_oracle_agrees_with_default(capsys):
    for n in ("2", "3", "4", "5"):
        code, fast, _ = run_cli(capsys, "count", "--players", n)
        code2, slow, _ = run_cli(capsys, "count", "--players", n, "--oracle")
        assert code == code2 == 0 and fast == slow


def test_count_oracle_guard_is_exit_two(capsys):
    code, _, err = run_cli(capsys, "count", "--players", "9", "--oracle")
    assert code == 2 and "error:" in err


def test_count_invalid_players_is_exit_two(capsys):
    code, _, err = run_cli(capsys, "count", "--players", "0")
    assert code == 2 and err.strip()


# -- simulate --------------------------------------------------------------------

def test_simulate_prints_bijection(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--players", "2", "--seed", "7")
    assert code == 0
    gifts = sorted(int(line.split("gift")[1].split()[0])
                   for line in out.splitlines() if line.startswith("seat"))
    assert gifts == [1, 2]
    assert "steals:" in out and "chain lengths:" in out


def test_simulate_stdout_is_deterministic(capsys):
    _, a, _ = run_cli(capsys, "simulate", "--players", "6", "--seed", "3",
                      "--features", "pi,sc,ad,bs", "--model", "correlated")
    _, b, _ = run_cli(capsys, "simulate", "--players", "6", "--seed", "3",
                      "--features", "pi,sc,ad,bs", "--model", "correlated")
    assert a == b


def test_simulate_trace_lists_every_action(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--players", "4", "--seed", "1",
                           "--trace")
    assert code == 0
    trace_lines = [l for l in out.splitlines() if l.startswith("  round")]
    steals = sum(1 for l in trace_lines if "steal" in l)
    opens = sum(1 for l in trace_lines if "open" in l)
    swaps = sum(1 for l in trace_lines if "swap" in l or "keep" in l)
    assert opens == 4 and swaps == 1
    assert steals == int(out.split("steals: ")[1].split()[0])


def test_simulate_trace_prints_one_line_per_trace_record(capsys):
    _, out, _ = run_cli(capsys, "simulate", "--players", "6", "--seed", "2",
                        "--features", "sc,bs", "--model", "correlated",
                        "--trace")
    lines = [l for l in out.splitlines() if l.startswith("  round")]
    config = ExperimentConfig(n_players=6, base_seed=2)
    game = play_game(6, config.limits, config.model_for(ModelKind.CORRELATED),
                     feature_set("sc", "bs"), BehaviorParams(), game_rng(2, 0, 0))
    records = game_trace(game)["trajectory"]
    assert len(lines) == len(records)
    assert records[-1]["partner"] is not None  # the swap line is exercised
    for line, rec in zip(lines, records):
        head, desc = line.split(": ")
        assert head.split() == ["round", str(rec["round"]),
                                "chain", str(rec["position_in_chain"]),
                                "seat", str(rec["actor"])]
        assert desc == {
            "open": f"open gift {rec['gift']}",
            "steal": f"steal gift {rec['gift']} from seat {rec.get('victim')}",
            "swap": f"swap with seat {rec.get('partner')}",
        }[rec["kind"]]


def test_simulate_bad_feature_is_exit_two(capsys):
    code, _, err = run_cli(capsys, "simulate", "--players", "3", "--seed", "1",
                           "--features", "zz")
    assert code == 2 and "error:" in err


def test_simulate_negative_seed_is_exit_two(capsys):
    code, out, err = run_cli(capsys, "simulate", "--players", "3",
                             "--seed", "-3")
    assert code == 2 and "base_seed" in err and not out


def test_env_var_seed_used_when_flag_absent(capsys, monkeypatch):
    monkeypatch.setenv("GIFTEX_SEED", "9")
    _, with_env, _ = run_cli(capsys, "simulate", "--players", "4")
    monkeypatch.delenv("GIFTEX_SEED")
    _, explicit, _ = run_cli(capsys, "simulate", "--players", "4", "--seed", "9")
    assert with_env == explicit


def test_env_var_garbage_is_exit_two(capsys, monkeypatch):
    monkeypatch.setenv("GIFTEX_SEED", "xyz")
    code, _, err = run_cli(capsys, "simulate", "--players", "3")
    assert code == 2 and "GIFTEX_SEED" in err


# -- experiment ---------------------------------------------------------------------

def test_experiment_writes_csv(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "experiment", "--games", "2", "--seed", "5",
                           "--out", str(tmp_path), "--jobs", "1",
                           "--config", str(write_config(tmp_path)))
    assert code == 0
    path = tmp_path / "experiment.csv"
    assert path.exists()
    assert len(path.read_text().splitlines()) == 49
    assert str(path) in out


def write_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_players": 6}))
    return path


def test_experiment_json_format(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "experiment", "--games", "2", "--seed", "5",
                         "--out", str(tmp_path), "--format", "json",
                         "--jobs", "1", "--config", str(write_config(tmp_path)))
    assert code == 0
    doc = json.loads((tmp_path / "experiment.json").read_text())
    assert doc["config"]["games_per_condition"] == 2
    assert len(doc["conditions"]) == 48


def test_experiment_seed_precedence(tmp_path, capsys, monkeypatch):
    # --seed beats GIFTEX_SEED, which beats the config file's base_seed.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_players": 2, "base_seed": 5}))

    def echoed_seed(*seed):
        code, _, err = run_cli(capsys, "experiment", "--games", "1",
                               "--jobs", "1", "--format", "json", "--out",
                               str(tmp_path), "--config", str(path), *seed)
        assert code == 0, err
        doc = json.loads((tmp_path / "experiment.json").read_text())
        return doc["config"]["base_seed"]

    monkeypatch.delenv("GIFTEX_SEED", raising=False)
    assert echoed_seed() == 5
    monkeypatch.setenv("GIFTEX_SEED", "6")
    assert echoed_seed() == 6
    assert echoed_seed("--seed", "7") == 7


@pytest.mark.parametrize("config", [
    {"n_players": 2.9}, {"games_per_condition": True},
    {"behavior": {"c0": float("nan")}}, {"models": {"sigma_neg": float("inf")}}])
def test_experiment_bad_config_is_exit_two(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))  # NaN and Infinity are JSON literals here
    code, _, err = run_cli(capsys, "experiment", "--games", "1", "--jobs", "1",
                           "--out", str(tmp_path), "--config", str(path))
    assert code == 2 and "error:" in err
    assert not (tmp_path / "experiment.csv").exists()


@pytest.mark.parametrize("text, key", [
    ('{"games_per_condition": 1, "games_per_condition": 2}',
     "games_per_condition"),
    ('{"n_players": 3, "behavior": {"tau": 1.0, "c0": 0.1, "tau": 3.0}}',
     "tau")], ids=["top-level", "in-behavior"])
def test_experiment_duplicate_config_key_is_exit_two(tmp_path, capsys, text,
                                                    key):
    """A key given twice is refused, not read as its last value."""
    path = tmp_path / "cfg.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, "experiment", "--games", "1", "--jobs", "1",
                           "--out", str(tmp_path), "--config", str(path))
    assert code == 2 and f"duplicate config key '{key}'" in err
    assert not (tmp_path / "experiment.csv").exists()


def test_experiment_negative_seed_is_exit_two(tmp_path, capsys):
    code, _, err = run_cli(capsys, "experiment", "--games", "1", "--seed", "-1",
                           "--jobs", "2", "--out", str(tmp_path))
    assert code == 2 and "base_seed" in err
    assert not (tmp_path / "experiment.csv").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_experiment_jobs_below_one_is_exit_two(tmp_path, capsys, jobs):
    code, _, err = run_cli(capsys, "experiment", "--games", "1", "--jobs", jobs,
                           "--out", str(tmp_path))
    assert code == 2 and "jobs" in err
    assert not (tmp_path / "experiment.csv").exists()


def test_experiment_unusable_out_fails_before_the_run(tmp_path, capsys,
                                                     monkeypatch):
    # A regular file in the path, so no directory can be made below it.
    blocker = tmp_path / "file"
    blocker.write_text("")

    def never(*args, **kwargs):
        pytest.fail("run_experiment ran before --out was made")

    monkeypatch.setattr(harness, "run_experiment", never)
    code, _, err = run_cli(capsys, "experiment", "--games", "1", "--jobs", "1",
                           "--out", str(blocker / "x"))
    assert code == 1 and "error:" in err


def test_experiment_large_temperature_runs(tmp_path, capsys):
    # tau * v above 709 overflows a bare exp(tau * v).
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"behavior": {"tau": 1000}}))
    code, _, err = run_cli(capsys, "experiment", "--games", "1", "--jobs", "1",
                           "--out", str(tmp_path), "--config", str(path))
    assert code == 0, err
    assert len((tmp_path / "experiment.csv").read_text().splitlines()) == 49


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["count", "--players", "3", "--bogus"])
    assert err.value.code == 2


def test_module_entry_point_runs(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "giftex", "count", "--players", "4"],
        capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0 and proc.stdout.strip() == "3840"

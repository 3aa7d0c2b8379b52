"""Command-line interface, exercised through ``main(argv)``."""

import json

import pytest

from revforge.cli import main


@pytest.fixture
def scenario_file(tmp_path):
    doc = {
        "version": 1,
        "atoms": ["A", "B"],
        "initial": "uniform",
        "steps": [
            {"op": "revise-set", "sentences": ["A", "B"],
             "queries": [{"type": "believes", "sentence": "A & B"}]},
        ],
    }
    p = tmp_path / "demo.scenario"
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_run_text(scenario_file, capsys):
    assert main(["run", scenario_file]) == 0
    out = capsys.readouterr().out
    assert "initial: [{00,01,10,11}]" in out
    assert "believes A & B? yes" in out


def test_run_json(scenario_file, capsys):
    assert main(["run", scenario_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entries"][1]["beliefs"] == ["11"]
    assert doc["scenario"]["atoms"] == ["A", "B"]


def test_run_dot(scenario_file, capsys):
    assert main(["run", scenario_file, "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph trace {")
    assert "rankdir=BT;" in out


def test_run_missing_file(capsys):
    assert main(["run", "/no/such/file.scenario"]) == 2
    assert "error: cannot read" in capsys.readouterr().err


def test_run_file_that_is_not_utf8(tmp_path, capsys):
    p = tmp_path / "latin1.scenario"
    p.write_bytes(b'{"version": 1, "atoms": ["\xe9"]}')
    assert main(["run", str(p)]) == 2
    assert "error: cannot read" in capsys.readouterr().err


def test_run_invalid_json_file(tmp_path, capsys):
    p = tmp_path / "broken.scenario"
    p.write_text("{ nope", encoding="utf-8")
    assert main(["run", str(p)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_check_sound_postulate(capsys):
    assert main(["check", "--id", "CR1"]) == 0
    out = capsys.readouterr().out
    assert "CR1" in out
    assert "ok" in out


def test_check_known_violation_matches_auto_expectation(capsys):
    # the catalog expects this operator to miss the mark, so a found
    # counterexample is the *matching* outcome
    assert main(["check", "--id", "Ind", "--op", "natural", "--first"]) == 0
    out = capsys.readouterr().out
    assert "violated" in out


def test_check_expect_flag_can_force_a_mismatch(capsys):
    assert main(["check", "--id", "Ind", "--op", "natural",
                 "--expect", "sound", "--first"]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_check_expect_violation_on_a_sound_postulate(capsys):
    assert main(["check", "--id", "K1", "--expect", "violation"]) == 1
    capsys.readouterr()


def test_check_unknown_id(capsys):
    assert main(["check", "--id", "K99"]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_rejects_an_oversized_family(capsys):
    assert main(["check", "--id", "K-star-2", "--atoms", "1", "--sets", "1000000"]) == 2
    assert "max_set_size must be at most 3" in capsys.readouterr().err


def test_check_equivalence_pair(capsys):
    assert main(["check", "--id", "PC3-pair"]) == 0
    out = capsys.readouterr().out
    assert "PC3~PC3-b" in out


def test_check_unknown_pair(capsys):
    assert main(["check", "--id", "Zed-pair"]) == 2
    assert "unknown pair" in capsys.readouterr().err


def test_check_rc_identity(capsys):
    assert main(["check", "--id", "rc-identity"]) == 0
    assert "rc-identity" in capsys.readouterr().out


def test_check_rc_identity_json_names_the_aggregator_that_ran(capsys):
    assert main(["check", "--id", "rc-identity", "--agg", "round-robin",
                 "--format", "json"]) == 0
    operators = json.loads(capsys.readouterr().out)["space"]["operators"]
    assert operators == {"revision": "natural", "contraction": "natural-contract",
                         "base": "natural", "finisher": "natural", "strategy": "stq"}
    assert list(operators) == ["revision", "contraction", "base", "finisher", "strategy"]


def test_check_json_format(capsys):
    assert main(["check", "--id", "CR2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["postulate"] == "CR2"
    assert doc["checked"] == 1125
    assert doc["violations"] == []
    assert doc["matched"] is True


def test_check_sampled_uses_seed_flag(capsys):
    code = main(["check", "--id", "Conj-star", "--sampled", "50",
                 "--seed", "7", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 7
    assert doc["checked"] > 0


def test_env_seed_is_honored(monkeypatch, capsys):
    monkeypatch.setenv("REVFORGE_SEED", "4242")
    assert main(["check", "--id", "Conj-star", "--sampled", "25",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 4242


def test_explicit_seed_beats_environment(monkeypatch, capsys):
    monkeypatch.setenv("REVFORGE_SEED", "4242")
    assert main(["check", "--id", "Conj-star", "--sampled", "25",
                 "--seed", "9", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 9


def test_seed_without_sampled_is_a_usage_error(capsys):
    """An exhaustive sweep draws nothing, so a seed given to one is
    refused rather than dropped from the report."""
    assert main(["check", "--id", "K2", "--seed", "5", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed=5" in captured.err


def test_exhaustive_run_ignores_the_environment_seed(monkeypatch, capsys):
    monkeypatch.setenv("REVFORGE_SEED", "4242")
    assert main(["check", "--id", "K2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] is None
    assert doc["space"]["mode"] == "exhaustive"


@pytest.mark.parametrize("flag, env", [(["--seed", "-3"], None), ([], "-3")])
def test_a_negative_seed_is_a_usage_error(monkeypatch, capsys, flag, env):
    """``random.Random(-3)`` draws ``random.Random(3)``'s stream, so a
    negative seed, from the flag or the environment, is refused."""
    if env is not None:
        monkeypatch.setenv("REVFORGE_SEED", env)
    assert main(["check", "--id", "Conj-star", "--sampled", "25", *flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed must be at least 0, got -3" in captured.err


def test_invalid_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("REVFORGE_SEED", "lots")
    assert main(["check", "--id", "Conj-star", "--sampled", "25"]) == 2
    assert "REVFORGE_SEED must be an integer" in capsys.readouterr().err


def test_self_test(capsys):
    assert main(["self-test"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok:") == 5
    assert "FAIL" not in out
    assert "step 2: revise-set {~B}" in out


def test_self_test_flag_spelling(capsys):
    assert main(["--self-test"]) == 0
    capsys.readouterr()


def test_enumerate_two_atoms(capsys):
    assert main(["enumerate", "--atoms", "2"]) == 0
    out = capsys.readouterr().out
    assert "75 preorders over 4 worlds" in out
    # small spaces are listed even without --list
    assert "[{00,01,10,11}]" in out
    assert out.count("\n") == 76


def test_enumerate_one_atom_listing(capsys):
    assert main(["enumerate", "--atoms", "1", "--list"]) == 0
    out = capsys.readouterr().out
    assert "3 preorders over 2 worlds" in out


def test_enumerate_three_atoms_counts_only(capsys):
    assert main(["enumerate", "--atoms", "3"]) == 0
    out = capsys.readouterr().out
    assert "545835 preorders over 8 worlds" in out
    assert "[{" not in out


def test_enumerate_rejects_big_vocabularies(capsys):
    assert main(["enumerate", "--atoms", "4"]) == 2
    assert "1 to 3 atoms" in capsys.readouterr().err

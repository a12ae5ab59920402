import copy
import json

import pytest

from cryptomix import (
    ParseError,
    ValidationError,
    bundled_scenario_path,
    load_bundled_scenario,
    load_scenario,
    parse_scenario,
    save_scenario,
    scenario_payload,
)


@pytest.fixture()
def payload():
    return json.loads(bundled_scenario_path().read_text(encoding="utf-8"))


def test_bundled_scenario_contents(instance, scenarios):
    assert [a.id for a in instance.algorithms] == [
        "aes128-gcm",
        "aes256-gcm",
        "chacha20-poly1305",
        "ml-kem-768",
        "ml-dsa-65",
        "rsa-2048",
        "ecc-p256",
        "sha-256",
    ]
    assert sum(len(a.attacks) for a in instance.algorithms) == 38
    assert scenarios.budgets == (11.0, 15.0, 20.0, 25.0, 30.0)
    assert instance.attacker.budget == 40.0
    assert instance.attacker.value == 300.0


def test_round_trip(tmp_path, instance, scenarios):
    path = tmp_path / "scenario.json"
    save_scenario(instance, path, scenarios)
    loaded_instance, loaded_scenarios = load_scenario(path)
    assert loaded_instance == instance
    assert loaded_scenarios == scenarios


def test_payload_skips_scenarios_when_absent(instance):
    assert "scenario_budgets" not in scenario_payload(instance)


def test_unknown_root_field(payload):
    payload["extra"] = 1
    with pytest.raises(ParseError, match="unknown field 'extra'"):
        parse_scenario(payload)


def test_unknown_nested_field(payload):
    payload["algorithms"][0]["speed"] = 3
    with pytest.raises(ParseError, match=r"algorithms\[0\]"):
        parse_scenario(payload)


def test_missing_weights(payload):
    del payload["weights"]
    with pytest.raises(ParseError, match="missing field 'weights'"):
        parse_scenario(payload)


def test_missing_attack_cost(payload):
    del payload["algorithms"][2]["attacks"][1]["cost"]
    with pytest.raises(ParseError, match=r"algorithms\[2\].attacks\[1\]"):
        parse_scenario(payload)


def test_wrong_types(payload):
    bad = copy.deepcopy(payload)
    bad["algorithms"][0]["op_cost"] = "cheap"
    with pytest.raises(ParseError, match="expected a number"):
        parse_scenario(bad)

    bad = copy.deepcopy(payload)
    bad["algorithms"][0]["family"] = 1.5
    with pytest.raises(ParseError, match="expected an integer"):
        parse_scenario(bad)

    bad = copy.deepcopy(payload)
    bad["algorithms"][0]["family"] = True
    with pytest.raises(ParseError, match="expected an integer"):
        parse_scenario(bad)

    bad = copy.deepcopy(payload)
    bad["algorithms"] = {}
    with pytest.raises(ParseError, match="expected an array"):
        parse_scenario(bad)


@pytest.mark.parametrize(
    "where, value, path",
    [
        (("algorithms", 0, "attacks", 0, "cost"), float("nan"), r"algorithms\[0\].attacks\[0\].cost"),
        (("attacker", "budget"), float("inf"), r"attacker.budget"),
        (("weights", "g_op"), float("-inf"), r"weights.g_op"),
        (("scenario_budgets", 1), 10**400, r"scenario_budgets\[1\]"),
    ],
    ids=["nan", "inf", "-inf", "huge-int"],
)
def test_non_finite_numbers(payload, where, value, path):
    node = payload
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    with pytest.raises(ParseError, match=path + ": expected a finite number"):
        parse_scenario(payload)


def test_schema_version_gate(payload):
    payload["schema_version"] = "2"
    with pytest.raises(ParseError, match="schema_version"):
        parse_scenario(payload)


def test_decreasing_scenario_budgets(payload):
    payload["scenario_budgets"] = [30, 20]
    with pytest.raises(ValidationError, match="scenario_budgets"):
        parse_scenario(payload)


def test_non_integer_family_key(payload):
    payload["budgets"]["family_caps"]["fast"] = 0.5
    with pytest.raises(ParseError, match="not an integer family id"):
        parse_scenario(payload)


def test_duplicate_family_key(payload):
    payload["budgets"]["family_caps"] = {"00": 0.1, "0": 0.6}
    with pytest.raises(ParseError, match="budgets.family_caps: keys '00' and '0' both name family 0"):
        parse_scenario(payload)


def test_semantic_validation_on_load(tmp_path, payload):
    payload["algorithms"][0]["attacks"][0]["success"] = 1.2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValidationError, match="success"):
        load_scenario(path)


def test_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError, match="not valid JSON"):
        load_scenario(path)


def test_missing_file(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        load_scenario(tmp_path / "absent.json")


def test_default_cost_fn(payload):
    del payload["attacker"]["cost_fn"]
    instance, _ = parse_scenario(payload)
    assert instance.attacker.cost_fn.linear_coeff == 1.0
    assert instance.attacker.cost_fn.quadratic_coeff == 0.0


def test_bundled_loader_matches_path_loader(instance, scenarios):
    direct = load_scenario(bundled_scenario_path())
    assert direct == (instance, scenarios)
    assert load_bundled_scenario() == (instance, scenarios)

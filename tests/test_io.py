import copy
import hashlib
import json
import re
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptomix import (
    AttackMethod,
    AttackerParams,
    CostFunctionSpec,
    DefenderBudgets,
    DefenderWeights,
    EncryptionAlgorithm,
    GameInstance,
    ParseError,
    ScenarioSet,
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


def test_missing_family_caps(payload):
    # family_caps is left out of the hash, and still required
    del payload["budgets"]["family_caps"]
    with pytest.raises(ParseError, match="budgets: missing field 'family_caps'"):
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

    bad = copy.deepcopy(payload)
    bad["attacker"] = 5
    with pytest.raises(ParseError, match="^attacker: expected an object, got int$"):
        parse_scenario(bad)

    bad = copy.deepcopy(payload)
    bad["algorithms"][0]["id"] = 5
    with pytest.raises(ParseError, match=r"^algorithms\[0\]\.id: expected a string, got 5$"):
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


@pytest.mark.parametrize("key", [" 1", "1 ", "\t2", "+1", "-0", "1_0", " +1_0 ", "\u0661", "", "\u00b2"])
def test_family_key_is_ascii_digits_only(payload, key):
    # int() accepts all but the last two; none is a family id as written
    payload["budgets"]["family_caps"] = {key: 0.5, "0": 0.6}
    message = f"budgets.family_caps: key {key!r} is not an integer family id"
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_scenario(payload)


def test_duplicate_family_key(payload):
    payload["budgets"]["family_caps"] = {"00": 0.1, "0": 0.6}
    with pytest.raises(ParseError, match="budgets.family_caps: keys '00' and '0' both name family 0"):
        parse_scenario(payload)


# a key json.dumps writes once and a test renames in the text, so that
# the file gives a key twice
_REPEAT = "__repeat__"


def write_repeated_key(path, payload, where, key, first):
    """Write payload with `key` given twice in the object where(payload):
    first with value `first`, then last with the payload's own value."""
    obj = where(payload)
    obj[_REPEAT] = obj[key]
    obj[key] = first
    text = json.dumps(payload).replace(json.dumps(_REPEAT), json.dumps(key))
    path.write_text(text, encoding="utf-8")


@pytest.mark.parametrize(
    "where, key, first, message",
    [
        (lambda p: p, "scenario_budgets", [1.0], "$: duplicate field 'scenario_budgets'"),
        (lambda p: p["attacker"], "budget", 1e9, "attacker: duplicate field 'budget'"),
        (
            lambda p: p["algorithms"][2]["attacks"][1],
            "cost",
            0.5,
            "algorithms[2].attacks[1]: duplicate field 'cost'",
        ),
        (
            lambda p: p["budgets"]["family_caps"],
            "1",
            0.9,
            "budgets.family_caps: duplicate field '1'",
        ),
    ],
)
def test_repeated_key_rejected(tmp_path, payload, where, key, first, message):
    path = tmp_path / "repeated.json"
    write_repeated_key(path, payload, where, key, first)
    # json alone keeps the last value, which here is the bundled one
    assert parse_scenario(json.loads(path.read_text(encoding="utf-8"))) == load_bundled_scenario()
    with pytest.raises(ParseError, match=re.escape(message)):
        load_scenario(path)


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
    assert repr(load_bundled_scenario()) == repr(direct)


def test_non_utf8_file(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ParseError, match="not valid JSON"):
        load_scenario(path)


# Every scenario type, where the bundled document holds one, and its fields
# in model order. The root also holds the two file-level keys.
FIELD_TABLE = [
    ("$", (), GameInstance, ("algorithms", "weights", "budgets", "attacker")),
    (
        "algorithms[0]",
        ("algorithms", 0),
        EncryptionAlgorithm,
        (
            "id",
            "op_cost",
            "cpu_cost",
            "mem_cost",
            "latency",
            "resilience",
            "protected_value",
            "family",
            "attacks",
        ),
    ),
    (
        "algorithms[0].attacks[0]",
        ("algorithms", 0, "attacks", 0),
        AttackMethod,
        ("id", "success", "cost"),
    ),
    ("weights", ("weights",), DefenderWeights, ("g_op", "g_cpu", "g_mem", "g_tau", "g_r")),
    (
        "budgets",
        ("budgets",),
        DefenderBudgets,
        ("c_op_max", "c_cpu_max", "c_mem_max", "t_max", "r_min", "family_caps"),
    ),
    ("attacker", ("attacker",), AttackerParams, ("value", "budget", "cost_fn")),
    (
        "attacker.cost_fn",
        ("attacker", "cost_fn"),
        CostFunctionSpec,
        ("linear_coeff", "quadratic_coeff"),
    ),
]
ROOT_KEYS = ("schema_version", "scenario_budgets")
# a deleted optional key leaves this cost function when the file's is (2.0, 0.5)
OPTIONAL = {
    "cost_fn": CostFunctionSpec(),
    "linear_coeff": CostFunctionSpec(1.0, 0.5),
    "quadratic_coeff": CostFunctionSpec(2.0, 0.0),
    "scenario_budgets": CostFunctionSpec(2.0, 0.5),
}
FIELD_CASES = [
    (path, where, name) for path, where, _, names in FIELD_TABLE for name in names
] + [("$", (), name) for name in ROOT_KEYS]


def test_field_table_lists_every_model_field():
    for _, _, cls, names in FIELD_TABLE:
        assert names == tuple(f.name for f in fields(cls))


@pytest.mark.parametrize(
    "path, where, name", FIELD_CASES, ids=[f"{p}:{n}" for p, _, n in FIELD_CASES]
)
def test_field_is_optional_exactly_when_defaulted(payload, instance, path, where, name):
    payload["attacker"]["cost_fn"] = {"linear_coeff": 2.0, "quadratic_coeff": 0.5}
    node = payload
    for key in where:
        node = node[key]
    del node[name]
    if name not in OPTIONAL:
        with pytest.raises(ParseError) as err:
            parse_scenario(payload)
        assert str(err.value) == f"{path}: missing field {name!r}"
        return
    parsed, scenarios = parse_scenario(payload)
    attacker = replace(instance.attacker, cost_fn=OPTIONAL[name])
    assert parsed == replace(instance, attacker=attacker)
    assert (scenarios is None) == (name == "scenario_budgets")


def test_saved_bundled_scenario_bytes(tmp_path, instance, scenarios):
    path = tmp_path / "scenario.json"
    save_scenario(instance, path, scenarios)
    data = path.read_bytes()
    assert len(data) == 6442
    assert hashlib.sha256(data).hexdigest() == (
        "eb8befc50430c91a8347e680c4c27fc5989715d7df101f0428682688c4fb5151"
    )


def _reals(low, high, **bounds):
    return st.floats(low, high, allow_nan=False, allow_infinity=False, **bounds)


_probabilities = _reals(0.0, 1.0, exclude_min=True, exclude_max=True)
# 2 < 10 as numbers but "10" < "2" as strings
FAMILIES = (2, 10)


@st.composite
def valid_scenarios(draw):
    algorithms = []
    for i in range(draw(st.integers(1, 4))):
        attacks = tuple(
            AttackMethod(f"m{j}", draw(_probabilities), draw(_reals(0.0, 1e6)))
            for j in range(draw(st.integers(0, 4)))
        )
        algorithms.append(
            EncryptionAlgorithm(
                id=f"alg{i}",
                op_cost=draw(_reals(0.0, 1e6)),
                cpu_cost=draw(_reals(0.0, 1e9)),
                mem_cost=draw(_reals(0.0, 1e6)),
                latency=draw(_reals(0.0, 1e6)),
                resilience=draw(_reals(0.0, 1.0)),
                protected_value=draw(_reals(0.0, 1e6, exclude_min=True)),
                family=draw(st.sampled_from(FAMILIES)),
                attacks=attacks,
            )
        )
    budgets = DefenderBudgets(
        c_op_max=draw(_reals(0.0, 1e6, exclude_min=True)),
        c_cpu_max=draw(_reals(0.0, 1e9, exclude_min=True)),
        c_mem_max=draw(_reals(0.0, 1e6, exclude_min=True)),
        t_max=draw(_reals(0.0, 1e6, exclude_min=True)),
        r_min=draw(_reals(0.0, 1.0)),
        family_caps={fam: draw(_reals(0.0, 1.0, exclude_min=True)) for fam in FAMILIES},
    )
    weights = DefenderWeights(*(draw(_reals(0.0, 1e3)) for _ in range(5)))
    attacker = AttackerParams(
        value=draw(_reals(0.0, 1e6, exclude_min=True)),
        budget=draw(_reals(0.0, 1e6)),
        # a nonzero quadratic term keeps the cost function off its default
        cost_fn=CostFunctionSpec(
            draw(_reals(0.0, 10.0)), draw(_reals(0.0, 10.0, exclude_min=True))
        ),
    )
    ks = draw(st.none() | st.lists(_reals(0.0, 1e6), min_size=1, max_size=4))
    instance = GameInstance(tuple(algorithms), weights, budgets, attacker)
    return instance, None if ks is None else ScenarioSet(tuple(sorted(set(ks))))


@settings(max_examples=60, deadline=None)
@given(valid_scenarios())
def test_round_trip_random_instances(tmp_path_factory, drawn):
    instance, scenarios = drawn
    path = tmp_path_factory.mktemp("round-trip") / "scenario.json"
    save_scenario(instance, path, scenarios)
    assert load_scenario(path) == (instance, scenarios)
    saved = json.loads(path.read_text(encoding="utf-8"))
    assert list(saved["budgets"]["family_caps"]) == ["2", "10"]

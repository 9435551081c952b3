"""Loader strictness: unknown keys fail loudly, spellings normalize."""

import pytest

from repro.workload import (
    WorkloadSpecError,
    load_workload,
    parse_workload,
    parse_workload_text,
)

MINIMAL = {
    "name": "mini",
    "transactions": [
        {"name": "t", "weight": 1.0, "user_instructions": 1000.0,
         "touches": [{"segment": "stock", "count": 1}]},
    ],
}


def _with(**overrides):
    data = {**MINIMAL}
    data.update(overrides)
    return data


def _error_for(data) -> str:
    with pytest.raises(WorkloadSpecError) as excinfo:
        parse_workload(data, source="spec.yaml")
    message = str(excinfo.value)
    assert message.startswith("spec.yaml: "), (
        "loader errors must be prefixed with the source name")
    assert "\n" not in message
    return message


def test_minimal_spec_parses():
    spec = parse_workload(MINIMAL)
    assert spec.name == "mini"
    assert spec.transactions[0].touches[0].segment == "stock"


def test_unknown_top_level_key():
    message = _error_for(_with(wieght=1.0))
    assert "workload.wieght" in message and "unknown key" in message
    assert "known:" in message


def test_unknown_transaction_key_names_index():
    data = _with(transactions=[
        {**MINIMAL["transactions"][0], "redo": 1.0}])
    message = _error_for(data)
    assert "transactions[0].redo" in message and "unknown key" in message


def test_unknown_touch_key_names_path():
    txn = {**MINIMAL["transactions"][0],
           "touches": [{"segment": "stock", "count": 1, "zipf": 0.5}]}
    message = _error_for(_with(transactions=[txn]))
    assert "transactions[0].touches[0].zipf" in message


def test_missing_required_transaction_key():
    data = _with(transactions=[{"name": "t"}])
    message = _error_for(data)
    assert "transactions[0].weight" in message
    assert "required key is missing" in message


def test_non_numeric_weight():
    data = _with(transactions=[
        {**MINIMAL["transactions"][0], "weight": "heavy"}])
    message = _error_for(data)
    assert "transactions[0].weight" in message
    assert "must be a number" in message and "'heavy'" in message


def test_bad_generator_params_flow_through_loader():
    txn = {**MINIMAL["transactions"][0],
           "touches": [{"segment": "stock", "count": 1,
                        "distribution": "uniform", "skew": 0.9}]}
    message = _error_for(_with(transactions=[txn]))
    assert "skew" in message and "'zipf'" in message


def test_transactions_must_be_a_list():
    message = _error_for(_with(transactions={"t": 1}))
    assert "transactions" in message and "must be a list" in message


def test_phase_weights_must_be_mapping():
    message = _error_for(_with(phases=[
        {"name": "p", "duration_s": 1.0, "weights": [["t", 1.0]]}]))
    assert "phases[0].weights" in message and "mapping" in message


def test_numeric_spellings_build_identical_specs():
    exact = parse_workload(_with(transactions=[
        {**MINIMAL["transactions"][0], "user_instructions": 1450000}]))
    scientific = parse_workload(_with(transactions=[
        {**MINIMAL["transactions"][0], "user_instructions": 1.45e6}]))
    assert exact == scientific
    assert exact.fingerprint() == scientific.fingerprint()


def test_json_text_always_parses():
    import json
    spec = parse_workload_text(json.dumps(MINIMAL), source="mini.json")
    assert spec == parse_workload(MINIMAL)


def test_yaml_text_parses_when_pyyaml_present():
    spec = parse_workload_text(
        "name: mini\n"
        "transactions:\n"
        "  - name: t\n"
        "    weight: 1.0\n"
        "    user_instructions: 1.45e6\n"
        "    touches:\n"
        "      - {segment: stock, count: 1}\n")
    assert spec.transactions[0].user_instructions == 1450000.0


def test_load_workload_missing_file_names_path(tmp_path):
    with pytest.raises(WorkloadSpecError, match="cannot read spec file"):
        load_workload(tmp_path / "ghost.yaml")


def test_load_workload_round_trip(tmp_path):
    import json
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(MINIMAL))
    spec = load_workload(path)
    assert spec == parse_workload(MINIMAL)


def test_garbage_text_is_a_spec_error():
    with pytest.raises(WorkloadSpecError):
        parse_workload_text("{not valid: [yaml or json", source="bad.yaml")

"""Parse workload specs from YAML/JSON mappings and files.

The loader is the strict front door of the DSL: it walks the raw
mapping key by key, rejects anything it does not know (a typo like
``wieght`` fails loudly instead of silently meaning "default"), type-
coerces numerics (every float field goes through ``float()`` so a YAML
``1450000`` and ``1.45e6`` build identical specs), and raises
:class:`~repro.workload.spec.WorkloadSpecError` with single-line
messages of the form ``<source>: <key path>: <what is wrong>``.

Text is read with PyYAML (a declared dependency), which also reads
JSON: JSON text is YAML.  PyYAML is imported on the first read, not at
import, so a run of the default workload never loads it.
"""

from __future__ import annotations

from pathlib import Path

from repro.workload.spec import (
    PhaseSpec,
    SegmentSpec,
    TouchRule,
    TransactionSpec,
    WorkloadSpec,
    WorkloadSpecError,
)

#: Key sets the loader accepts, per mapping level.  Anything else is an
#: unknown-field error naming the key and the known set.
_TOP_KEYS = ("name", "description", "remote_touch_prob", "segments",
             "transactions", "phases")
_SEGMENT_KEYS = ("name", "units", "bytes", "per_warehouse")
_TRANSACTION_KEYS = ("name", "weight", "user_instructions", "touches",
                     "locks", "redo_bytes", "districts_touched")
_TOUCH_KEYS = ("segment", "count", "write_prob", "distribution", "skew",
               "index")
_PHASE_KEYS = ("name", "duration_s", "weights")


def _fail(key: str, message: str) -> None:
    raise WorkloadSpecError(f"{key}: {message}")


def _check_mapping(data, key: str, known: tuple[str, ...]) -> dict:
    if not isinstance(data, dict):
        _fail(key, f"must be a mapping, got {type(data).__name__}")
    for found in data:
        if found not in known:
            _fail(f"{key}.{found}",
                  f"unknown key (known: {', '.join(known)})")
    return data


def _get_list(data: dict, key: str, path: str) -> list:
    value = data.get(key)
    if not isinstance(value, list):
        _fail(f"{path}{key}",
              f"must be a list, got {type(value).__name__}")
    return value


def _number(value, key: str, caster=float):
    try:
        return caster(value)
    except (TypeError, ValueError):
        _fail(key, f"must be a number, got {value!r}")


def _parse_touch(data, path: str) -> TouchRule:
    data = _check_mapping(data, path, _TOUCH_KEYS)
    if "segment" not in data:
        _fail(f"{path}.segment", "touch must name a segment")
    if "count" not in data:
        _fail(f"{path}.count", "touch must give a touch count")
    kwargs = {
        "segment": str(data["segment"]),
        "count": _number(data["count"], f"{path}.count", int),
    }
    if "write_prob" in data:
        kwargs["write_prob"] = _number(data["write_prob"],
                                       f"{path}.write_prob")
    if "distribution" in data:
        kwargs["distribution"] = str(data["distribution"])
    if "skew" in data:
        kwargs["skew"] = _number(data["skew"], f"{path}.skew")
    if "index" in data:
        kwargs["index"] = _number(data["index"], f"{path}.index", int)
    return TouchRule(**kwargs)


def _parse_transaction(data, path: str) -> TransactionSpec:
    data = _check_mapping(data, path, _TRANSACTION_KEYS)
    for required in ("name", "weight", "user_instructions", "touches"):
        if required not in data:
            _fail(f"{path}.{required}", "required key is missing")
    touches = tuple(
        _parse_touch(touch, f"{path}.touches[{index}]")
        for index, touch in enumerate(_get_list(data, "touches", f"{path}.")))
    kwargs = {
        "name": str(data["name"]),
        "weight": _number(data["weight"], f"{path}.weight"),
        "user_instructions": _number(data["user_instructions"],
                                     f"{path}.user_instructions"),
        "touches": touches,
    }
    if "locks" in data:
        locks = data["locks"]
        if not isinstance(locks, list):
            _fail(f"{path}.locks",
                  f"must be a list of lock kinds, got "
                  f"{type(locks).__name__}")
        kwargs["locks"] = tuple(str(lock) for lock in locks)
    if "redo_bytes" in data:
        kwargs["redo_bytes"] = _number(data["redo_bytes"],
                                       f"{path}.redo_bytes")
    if "districts_touched" in data:
        kwargs["districts_touched"] = _number(
            data["districts_touched"], f"{path}.districts_touched", int)
    return TransactionSpec(**kwargs)


def _parse_segment(data, path: str) -> SegmentSpec:
    data = _check_mapping(data, path, _SEGMENT_KEYS)
    if "name" not in data:
        _fail(f"{path}.name", "segment must have a name")
    kwargs = {"name": str(data["name"])}
    if "units" in data and data["units"] is not None:
        kwargs["units"] = _number(data["units"], f"{path}.units", int)
    if "bytes" in data and data["bytes"] is not None:
        kwargs["bytes"] = _number(data["bytes"], f"{path}.bytes")
    if "per_warehouse" in data:
        if not isinstance(data["per_warehouse"], bool):
            _fail(f"{path}.per_warehouse",
                  f"must be true or false, got {data['per_warehouse']!r}")
        kwargs["per_warehouse"] = data["per_warehouse"]
    return SegmentSpec(**kwargs)


def _parse_phase(data, path: str) -> PhaseSpec:
    data = _check_mapping(data, path, _PHASE_KEYS)
    for required in ("name", "duration_s"):
        if required not in data:
            _fail(f"{path}.{required}", "required key is missing")
    weights: tuple[tuple[str, float], ...] = ()
    if "weights" in data:
        raw = data["weights"]
        if not isinstance(raw, dict):
            _fail(f"{path}.weights",
                  f"must be a mapping of transaction name to weight, "
                  f"got {type(raw).__name__}")
        weights = tuple(
            (str(name), _number(value, f"{path}.weights[{name!r}]"))
            for name, value in raw.items())
    return PhaseSpec(
        name=str(data["name"]),
        duration_s=_number(data["duration_s"], f"{path}.duration_s"),
        weights=weights,
    )


def parse_workload(data, source: str = "<workload>") -> WorkloadSpec:
    """Build a validated :class:`WorkloadSpec` from a plain mapping.

    ``source`` (usually the file name) prefixes every error message so
    a failing spec in a sweep names the file to fix.
    """
    try:
        data = _check_mapping(data, "workload", _TOP_KEYS)
        if "name" not in data:
            _fail("name", "workload must have a name")
        if "transactions" not in data:
            _fail("transactions", "workload must define transactions")
        transactions = tuple(
            _parse_transaction(txn, f"transactions[{index}]")
            for index, txn in enumerate(_get_list(data, "transactions", "")))
        kwargs = {
            "name": str(data["name"]),
            "transactions": transactions,
            "description": str(data.get("description", "")).strip(),
        }
        if data.get("segments") is not None:
            kwargs["segments"] = tuple(
                _parse_segment(seg, f"segments[{index}]")
                for index, seg in enumerate(
                    _get_list(data, "segments", "")))
        if data.get("phases") is not None:
            kwargs["phases"] = tuple(
                _parse_phase(phase, f"phases[{index}]")
                for index, phase in enumerate(_get_list(data, "phases", "")))
        if data.get("remote_touch_prob") is not None:
            kwargs["remote_touch_prob"] = _number(
                data["remote_touch_prob"], "remote_touch_prob")
        return WorkloadSpec(**kwargs)
    except WorkloadSpecError as error:
        raise WorkloadSpecError(f"{source}: {error}") from None


def parse_workload_text(text: str,
                        source: str = "<workload>") -> WorkloadSpec:
    """Parse YAML (or JSON) text into a validated spec."""
    return parse_workload(read_yaml(text, source), source=source)


def load_workload(path: Path | str) -> WorkloadSpec:
    """Read one workload spec file (``.yaml``/``.yml``/``.json``)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise WorkloadSpecError(f"{path}: cannot read spec file: {error}")
    return parse_workload_text(text, source=path.name)


def read_yaml(text: str, source: str):
    """The document in YAML (or JSON) ``text``; a syntax error raises
    :class:`WorkloadSpecError` with a one-line message naming
    ``source``."""
    import yaml

    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        message = " ".join(str(exc).split())
        raise WorkloadSpecError(f"{source}: not valid YAML: {message}") from None

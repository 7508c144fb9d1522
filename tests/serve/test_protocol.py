"""Unit tests for the serving wire protocol (no sockets involved)."""

from __future__ import annotations

import pytest

from repro.cli import parse_config
from repro.frontend import (
    ArrayDirective,
    LoopDirective,
    PartitionType,
    PragmaConfig,
)
from repro.serve.protocol import (
    ERROR_CODES,
    ProtocolError,
    config_from_payload,
    config_to_payload,
    decode_message,
    encode_message,
    error_response,
)


class TestFraming:
    def test_encode_decode_roundtrip(self):
        message = {"type": "predict", "id": 3, "kernel": "gemm", "configs": [None]}
        wire = encode_message(message)
        assert wire.endswith(b"\n") and wire.count(b"\n") == 1
        assert decode_message(wire) == message

    def test_decode_rejects_invalid_json(self):
        with pytest.raises(ProtocolError):
            decode_message(b"{not json}\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_message(b"[1, 2, 3]\n")

    def test_error_response_shape(self):
        response = error_response(9, "overloaded", "queue full")
        assert response == {
            "id": 9, "ok": False, "error": "overloaded", "message": "queue full",
        }
        assert response["error"] in ERROR_CODES


class TestConfigPayloads:
    def _config(self) -> PragmaConfig:
        return PragmaConfig.from_dicts(
            loops={
                "L0_0": LoopDirective(pipeline=True, ii=2),
                "L0": LoopDirective(unroll_factor=4, flatten=True),
            },
            arrays={"A": ArrayDirective(PartitionType.CYCLIC, factor=4, dim=2)},
        )

    def test_canonical_roundtrip(self):
        config = self._config()
        payload = config_to_payload(config)
        assert config_from_payload(payload) == config
        # and the payload itself is a fixed point
        assert config_to_payload(config_from_payload(payload)) == payload

    def test_none_and_empty_mean_baseline(self):
        assert config_from_payload(None) == PragmaConfig()
        assert config_from_payload({}) == PragmaConfig()

    def test_spec_string_form_matches_cli_parser(self):
        loops = ["L0_0=pipeline:2", "L0=unroll:4+flatten"]
        arrays = ["A=cyclic:4:2"]
        via_payload = config_from_payload({"loops": loops, "arrays": arrays})
        assert via_payload == parse_config(loops, arrays)
        assert via_payload == self._config()

    def test_rejects_non_object_payload(self):
        with pytest.raises(ProtocolError):
            config_from_payload("L0=pipeline")

    def test_rejects_non_dict_directive(self):
        with pytest.raises(ProtocolError):
            config_from_payload({"loops": {"L0": "pipeline"}})
        with pytest.raises(ProtocolError):
            config_from_payload({"arrays": {"A": 4}})

    def test_rejects_invalid_directive_values(self):
        with pytest.raises(ProtocolError):
            config_from_payload({"loops": {"L0": {"unroll": "lots"}}})
        with pytest.raises(ProtocolError):
            config_from_payload({"arrays": {"A": {"type": "diagonal"}}})

    @pytest.mark.parametrize("payload, field", [
        ({"loops": {"L0": {"unroll": -3}}}, "unroll"),
        ({"loops": ["L0=unroll:-3"]}, "unroll"),
        ({"loops": {"L0": {"pipeline": True, "ii": -1}}}, "ii"),
        ({"loops": ["L0=pipeline:-1"]}, "ii"),
        ({"arrays": {"A": {"type": "cyclic", "factor": 0}}}, "factor"),
        ({"arrays": ["A=cyclic:0"]}, "factor"),
        ({"arrays": {"A": {"factor": 2, "dim": 0}}}, "dim"),
        ({"arrays": ["A=cyclic:2:0"]}, "dim"),
    ])
    def test_rejects_out_of_range_values_naming_the_field(self, payload, field):
        with pytest.raises(ProtocolError, match=f"{field} must be"):
            config_from_payload(payload)

    def test_zero_unroll_and_ii_keep_their_meaning(self):
        config = config_from_payload({"loops": {"L0": {"unroll": 0, "ii": 0}}})
        assert config.loop("L0") == LoopDirective(unroll_factor=0, ii=0)
        assert config_from_payload({"loops": ["L0=unroll:0"]}) == config

    def test_spec_list_with_empty_or_missing_half(self):
        # regression: an explicit empty list (or an absent half) next to a
        # spec-string list must mean "no directives of that kind", not a
        # bad-request — clients naturally send {"loops": [...], "arrays": []}
        loops = ["L0_0=unroll:2"]
        expected = parse_config(loops, [])
        assert config_from_payload({"loops": loops, "arrays": []}) == expected
        assert config_from_payload({"loops": loops}) == expected
        assert config_from_payload({"loops": loops, "arrays": {}}) == expected
        arrays = ["A=cyclic:4:2"]
        assert config_from_payload({"arrays": arrays}) == parse_config([], arrays)

    def test_rejects_mixed_list_forms(self):
        with pytest.raises(ProtocolError):
            config_from_payload({"loops": ["L0=pipeline"], "arrays": [7]})

    def test_rejects_bad_spec_string(self):
        with pytest.raises(ProtocolError, match="invalid directive spec"):
            config_from_payload({"loops": ["L0=teleport"], "arrays": []})

    @pytest.mark.parametrize("payload", [
        {"loops": ["L0=unroll:x"]},
        {"arrays": ["A=foo:2"]},
        {"arrays": ["A=cyclic:two"]},
        {"loops": {"L0": {"unroll": 2.5}}},
        {"loops": {"L0": {"ii": 1.5}}},
        {"arrays": {"A": {"factor": 4.5}}},
    ])
    def test_rejects_bad_numbers_and_partition_types(self, payload):
        # anything but ProtocolError leaves the daemon's request task dead
        # and the client unanswered; truncating 2.5 to 2 would score a
        # different design than the one asked for
        with pytest.raises(ProtocolError):
            config_from_payload(payload)

    def test_integral_floats_are_accepted(self):
        config = config_from_payload({"loops": {"L0": {"unroll": 2.0}}})
        assert config.loop("L0").unroll_factor == 2

    @pytest.mark.parametrize("payload, key", [
        ({"loops": {"L0": {"unrol": 4}}}, "unrol"),
        ({"arrays": {"A": {"factr": 4}}}, "factr"),
        ({"loop": {"L0": {"unroll": 4}}}, "loop"),
        ({"loops": ["L0=unroll:4"], "array": ["A=cyclic:4"]}, "array"),
    ])
    def test_rejects_unknown_keys_naming_them(self, payload, key):
        # a misspelt key used to be dropped, so the request silently scored
        # the baseline design instead of the one asked for
        with pytest.raises(ProtocolError, match=f"unknown .* key '{key}'"):
            config_from_payload(payload)

    def test_unroll_factor_alias_is_accepted(self):
        config = config_from_payload({"loops": {"L0": {"unroll_factor": 4}}})
        assert config.loop("L0").unroll_factor == 4

"""Unit tests for pragma parsing and design-point configurations."""

import pytest

from repro.frontend.errors import PragmaError
from repro.frontend.pragmas import (
    ArrayDirective,
    LoopDirective,
    PartitionType,
    PragmaConfig,
    PragmaKind,
    config_from_pragmas,
    config_from_specs,
    parse_pragma,
)


class TestParsePragma:
    def test_pipeline(self):
        pragma = parse_pragma("#pragma HLS pipeline")
        assert pragma.kind is PragmaKind.PIPELINE
        assert not pragma.off

    def test_pipeline_with_ii(self):
        pragma = parse_pragma("#pragma HLS pipeline II=4")
        assert pragma.ii == 4

    def test_pipeline_off(self):
        pragma = parse_pragma("#pragma HLS pipeline off")
        assert pragma.off

    def test_unroll_with_factor(self):
        pragma = parse_pragma("#pragma HLS unroll factor=8")
        assert pragma.kind is PragmaKind.UNROLL
        assert pragma.factor == 8

    def test_unroll_without_factor_means_full(self):
        pragma = parse_pragma("#pragma HLS unroll")
        assert pragma.factor == 0

    def test_array_partition(self):
        pragma = parse_pragma(
            "#pragma HLS array_partition variable=A type=cyclic factor=4 dim=2"
        )
        assert pragma.kind is PragmaKind.ARRAY_PARTITION
        assert pragma.variable == "A"
        assert pragma.partition_type is PartitionType.CYCLIC
        assert pragma.factor == 4
        assert pragma.dim == 2

    def test_array_partition_complete(self):
        pragma = parse_pragma(
            "#pragma HLS array_partition variable=buf type=complete dim=1"
        )
        assert pragma.partition_type is PartitionType.COMPLETE

    def test_array_partition_requires_variable(self):
        with pytest.raises(PragmaError):
            parse_pragma("#pragma HLS array_partition type=cyclic factor=2")

    def test_loop_flatten(self):
        pragma = parse_pragma("#pragma HLS loop_flatten")
        assert pragma.kind is PragmaKind.LOOP_FLATTEN

    def test_unknown_hls_pragma_raises(self):
        with pytest.raises(PragmaError):
            parse_pragma("#pragma HLS dataflow_magic")

    def test_non_hls_pragma_returns_none(self):
        assert parse_pragma("#pragma omp parallel for") is None

    def test_roundtrip_string(self):
        pragma = parse_pragma("#pragma HLS unroll factor=4")
        assert "unroll" in str(pragma)
        assert "factor=4" in str(pragma)


class TestPragmaConfig:
    def test_default_loop_directive(self):
        config = PragmaConfig()
        directive = config.loop("L0")
        assert not directive.pipeline
        assert directive.unroll_factor == 1

    def test_default_array_directive(self):
        config = PragmaConfig()
        assert config.array("A").factor == 1

    def test_from_dicts_and_lookup(self):
        config = PragmaConfig.from_dicts(
            loops={"L0": LoopDirective(pipeline=True, unroll_factor=4)},
            arrays={"A": ArrayDirective(PartitionType.BLOCK, factor=2, dim=1)},
        )
        assert config.loop("L0").pipeline
        assert config.loop("L0").unroll_factor == 4
        assert config.array("A").partition_type is PartitionType.BLOCK

    def test_describe_baseline(self):
        assert PragmaConfig().describe() == "baseline"

    def test_describe_mentions_directives(self):
        config = PragmaConfig.from_dicts(
            loops={"L0": LoopDirective(pipeline=True)},
        )
        assert "pipeline" in config.describe()

    def test_key_is_stable_and_unique(self):
        config_a = PragmaConfig.from_dicts(loops={"L0": LoopDirective(pipeline=True)})
        config_b = PragmaConfig.from_dicts(loops={"L0": LoopDirective(unroll_factor=2)})
        assert config_a.key() == config_a.key()
        assert config_a.key() != config_b.key()

    def test_config_is_hashable(self):
        config = PragmaConfig.from_dicts(loops={"L0": LoopDirective(pipeline=True)})
        assert isinstance(hash(config), int)

    def test_loop_dict_round_trip(self):
        loops = {"L0": LoopDirective(unroll_factor=8), "L1": LoopDirective(pipeline=True)}
        config = PragmaConfig.from_dicts(loops=loops)
        assert config.loop_dict == loops


class TestConfigFromPragmas:
    def test_source_pragmas_become_directives(self):
        loop_pragmas = {
            "L0": [parse_pragma("#pragma HLS pipeline"),
                   parse_pragma("#pragma HLS unroll factor=2")],
        }
        array_pragmas = [
            parse_pragma("#pragma HLS array_partition variable=A type=cyclic factor=2 dim=1")
        ]
        config = config_from_pragmas(loop_pragmas, array_pragmas)
        assert config.loop("L0").pipeline
        assert config.loop("L0").unroll_factor == 2
        assert config.array("A").factor == 2

    def test_loops_without_directives_are_omitted(self):
        config = config_from_pragmas({"L0": []}, [])
        assert config.loops == ()


class TestConfigFromSpecs:
    def test_loop_and_array_specs(self):
        config = config_from_specs(["L0=pipeline:2+unroll:4"], ["A=block:8:2"])
        assert config.loop("L0").pipeline and config.loop("L0").ii == 2
        assert config.loop("L0").unroll_factor == 4
        array = config.array("A")
        assert array.partition_type is PartitionType.BLOCK
        assert (array.factor, array.dim) == (8, 2)

    @pytest.mark.parametrize("loops, arrays, message", [
        (["L0=dataflow"], [], "unknown loop directive"),
        (["L0=unroll:x"], [], "invalid number"),
        (["L0=pipeline:fast"], [], "invalid number"),
        ([], ["A=foo:2"], "unknown partition type"),
        ([], ["A=cyclic:two"], "invalid number"),
        ([], ["A=cyclic:4:y"], "invalid number"),
    ])
    def test_malformed_specs_raise_value_error(self, loops, arrays, message):
        with pytest.raises(ValueError, match=message):
            config_from_specs(loops, arrays)

    @pytest.mark.parametrize("loops, arrays, field", [
        (["L0=unroll:-3"], [], "unroll"),
        (["L0=pipeline:-1"], [], "ii"),
        ([], ["A=cyclic:0"], "factor"),
        ([], ["A=block:-2"], "factor"),
        ([], ["A=cyclic:2:0"], "dim"),
    ])
    def test_out_of_range_values_raise_value_error(self, loops, arrays, field):
        spec = (loops or arrays)[0]
        with pytest.raises(ValueError, match=f"{field} must be .* in '{spec}'"):
            config_from_specs(loops, arrays)

    def test_zero_unroll_means_full_and_zero_ii_unset(self):
        config = config_from_specs(["L0=unroll:0", "L1=pipeline:0"], [])
        assert config.loop("L0").unroll_factor == 0
        assert config.loop("L1") == LoopDirective(pipeline=True, ii=0)


class TestDirectiveRanges:
    @pytest.mark.parametrize("kwargs, field", [
        ({"unroll_factor": -1}, "unroll"),
        ({"ii": -1}, "ii"),
    ])
    def test_loop_directive_rejects_negative_values(self, kwargs, field):
        with pytest.raises(ValueError, match=f"{field} must be"):
            LoopDirective(**kwargs)

    @pytest.mark.parametrize("kwargs, field", [
        ({"factor": 0}, "factor"),
        ({"partition_type": PartitionType.BLOCK, "factor": -4}, "factor"),
        ({"dim": 0}, "dim"),
    ])
    def test_array_directive_rejects_out_of_range_values(self, kwargs, field):
        with pytest.raises(ValueError, match=f"{field} must be"):
            ArrayDirective(**kwargs)

    def test_complete_partition_ignores_its_factor(self):
        assert ArrayDirective(PartitionType.COMPLETE, factor=0).describe() == "complete:f0:d1"


class TestDirectiveDescriptions:
    def test_loop_directive_describe(self):
        assert LoopDirective().describe() == "none"
        assert "pipeline" in LoopDirective(pipeline=True).describe()
        assert "unroll=4" in LoopDirective(unroll_factor=4).describe()

    def test_array_directive_describe(self):
        assert ArrayDirective().describe() == "none"
        text = ArrayDirective(PartitionType.CYCLIC, factor=4, dim=2).describe()
        assert "cyclic" in text and "f4" in text

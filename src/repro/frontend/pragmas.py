"""HLS pragma parsing and design-configuration objects.

Two distinct concepts live here:

* :class:`Pragma` — a single ``#pragma HLS ...`` directive parsed from source
  text (or constructed programmatically).
* :class:`PragmaConfig` — a *design point*: the complete set of directives
  applied to a kernel (keyed by loop label and array name).  DSE enumerates
  ``PragmaConfig`` objects; the graph constructor and the HLS flow simulator
  both consume them so that the model's input and the ground-truth label are
  always generated from the same configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.frontend.errors import PragmaError


class PragmaKind(Enum):
    """Supported ``#pragma HLS`` directive kinds."""

    PIPELINE = "pipeline"
    UNROLL = "unroll"
    ARRAY_PARTITION = "array_partition"
    LOOP_FLATTEN = "loop_flatten"
    INLINE = "inline"


class PartitionType(Enum):
    """Array partitioning styles supported by Vitis HLS."""

    CYCLIC = "cyclic"
    BLOCK = "block"
    COMPLETE = "complete"


@dataclass(frozen=True)
class Pragma:
    """A parsed ``#pragma HLS`` directive.

    Attributes mirror the Vitis HLS directive options that matter for QoR:
    ``factor`` for unroll / array_partition, ``ii`` for pipeline, ``variable``
    and ``dim`` for array_partition, and ``off`` to explicitly disable a
    directive (``#pragma HLS pipeline off``).
    """

    kind: PragmaKind
    factor: int = 0
    ii: int = 0
    variable: str = ""
    partition_type: PartitionType = PartitionType.CYCLIC
    dim: int = 1
    off: bool = False

    def __str__(self) -> str:
        parts = [f"#pragma HLS {self.kind.value}"]
        if self.kind is PragmaKind.PIPELINE:
            if self.off:
                parts.append("off")
            elif self.ii:
                parts.append(f"II={self.ii}")
        elif self.kind is PragmaKind.UNROLL and self.factor:
            parts.append(f"factor={self.factor}")
        elif self.kind is PragmaKind.ARRAY_PARTITION:
            parts.append(f"variable={self.variable}")
            parts.append(f"type={self.partition_type.value}")
            if self.partition_type is not PartitionType.COMPLETE:
                parts.append(f"factor={self.factor}")
            parts.append(f"dim={self.dim}")
        elif self.kind is PragmaKind.LOOP_FLATTEN and self.off:
            parts.append("off")
        return " ".join(parts)


def parse_pragma(text: str) -> Pragma | None:
    """Parse a ``#pragma`` line.

    Returns ``None`` for non-HLS pragmas (they are ignored, matching HLS tool
    behaviour) and raises :class:`PragmaError` for malformed HLS pragmas.
    """
    stripped = text.strip()
    if stripped.startswith("#"):
        stripped = stripped[1:].strip()
    parts = stripped.split()
    if not parts or parts[0].lower() != "pragma":
        raise PragmaError(f"not a pragma: {text!r}")
    parts = parts[1:]
    if not parts or parts[0].upper() != "HLS":
        return None
    parts = parts[1:]
    if not parts:
        raise PragmaError(f"empty HLS pragma: {text!r}")
    name = parts[0].lower()
    options = _parse_options(parts[1:])
    if name == "pipeline":
        return Pragma(
            PragmaKind.PIPELINE,
            ii=int(options.get("ii", 0)),
            off="off" in options,
        )
    if name == "unroll":
        return Pragma(PragmaKind.UNROLL, factor=int(options.get("factor", 0)))
    if name == "array_partition":
        if "variable" not in options:
            raise PragmaError(f"array_partition requires variable=: {text!r}")
        ptype_name = str(options.get("type", options.get("cyclic", "cyclic")))
        try:
            ptype = PartitionType(ptype_name.lower())
        except ValueError as exc:
            raise PragmaError(f"unknown partition type {ptype_name!r}") from exc
        return Pragma(
            PragmaKind.ARRAY_PARTITION,
            variable=str(options["variable"]),
            partition_type=ptype,
            factor=int(options.get("factor", 0)),
            dim=int(options.get("dim", 1)),
        )
    if name == "loop_flatten":
        return Pragma(PragmaKind.LOOP_FLATTEN, off="off" in options)
    if name == "inline":
        return Pragma(PragmaKind.INLINE, off="off" in options)
    raise PragmaError(f"unsupported HLS pragma {name!r}")


def _parse_options(parts: list[str]) -> dict[str, str | bool]:
    """Parse ``key=value`` / flag options of a pragma into a dict."""
    options: dict[str, str | bool] = {}
    for part in parts:
        if "=" in part:
            key, _, value = part.partition("=")
            options[key.strip().lower()] = value.strip()
        else:
            options[part.strip().lower()] = True
    return options


# --------------------------------------------------------------------------- #
# design-point configuration
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class LoopDirective:
    """Directives applied to one loop (addressed by its label).

    ``unroll_factor`` 0 means full unroll and ``ii`` 0 means no target II;
    a negative value of either raises :class:`ValueError` naming the field.
    """

    pipeline: bool = False
    ii: int = 0
    unroll_factor: int = 1
    flatten: bool = False

    def __post_init__(self) -> None:
        if self.unroll_factor < 0:
            raise ValueError(
                f"unroll must be >= 0 (0 means full unroll), got {self.unroll_factor}"
            )
        if self.ii < 0:
            raise ValueError(f"ii must be >= 0 (0 means unset), got {self.ii}")

    def describe(self) -> str:
        parts = []
        if self.pipeline:
            parts.append("pipeline" + (f"(II={self.ii})" if self.ii else ""))
        if self.unroll_factor > 1:
            parts.append(f"unroll={self.unroll_factor}")
        if self.flatten:
            parts.append("flatten")
        return "+".join(parts) if parts else "none"


@dataclass(frozen=True)
class ArrayDirective:
    """Array partitioning applied to one top-level array argument.

    ``dim`` counts from 1, and a cyclic or block ``factor`` must be at
    least 1 (a complete partition ignores it); anything else raises
    :class:`ValueError` naming the field.
    """

    partition_type: PartitionType = PartitionType.CYCLIC
    factor: int = 1
    dim: int = 1

    def __post_init__(self) -> None:
        if self.factor < 1 and self.partition_type is not PartitionType.COMPLETE:
            raise ValueError(
                f"factor must be >= 1 for a {self.partition_type.value} "
                f"partition, got {self.factor}"
            )
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")

    def describe(self) -> str:
        if self.factor <= 1 and self.partition_type is not PartitionType.COMPLETE:
            return "none"
        return f"{self.partition_type.value}:f{self.factor}:d{self.dim}"


@dataclass(frozen=True)
class PragmaConfig:
    """A complete design point: directives for every loop and array.

    ``loops`` maps loop labels (as assigned by the parser, e.g. ``"L0"``,
    ``"L0_1"``) to :class:`LoopDirective`.  ``arrays`` maps array argument
    names to :class:`ArrayDirective`.  Missing entries mean "no directive".
    """

    loops: tuple[tuple[str, LoopDirective], ...] = ()
    arrays: tuple[tuple[str, ArrayDirective], ...] = ()

    @staticmethod
    def from_dicts(
        loops: dict[str, LoopDirective] | None = None,
        arrays: dict[str, ArrayDirective] | None = None,
    ) -> "PragmaConfig":
        """Build a config from plain dictionaries (the common construction)."""
        loop_items = tuple(sorted((loops or {}).items()))
        array_items = tuple(sorted((arrays or {}).items()))
        return PragmaConfig(loops=loop_items, arrays=array_items)

    def loop(self, label: str) -> LoopDirective:
        """Directive for the loop ``label`` (default: no directives)."""
        for key, directive in self.loops:
            if key == label:
                return directive
        return LoopDirective()

    def array(self, name: str) -> ArrayDirective:
        """Directive for the array ``name`` (default: not partitioned)."""
        for key, directive in self.arrays:
            if key == name:
                return directive
        return ArrayDirective()

    @property
    def loop_dict(self) -> dict[str, LoopDirective]:
        return dict(self.loops)

    @property
    def array_dict(self) -> dict[str, ArrayDirective]:
        return dict(self.arrays)

    def describe(self) -> str:
        """A compact human-readable description of the design point."""
        loop_parts = [f"{label}:{d.describe()}" for label, d in self.loops]
        array_parts = [f"{name}:{d.describe()}" for name, d in self.arrays]
        return "; ".join(loop_parts + array_parts) or "baseline"

    def key(self) -> str:
        """A stable identifier used for hashing design points in datasets."""
        return self.describe()


def config_from_pragmas(
    loop_pragmas: dict[str, list[Pragma]],
    array_pragmas: list[Pragma],
) -> PragmaConfig:
    """Convert raw source pragmas (collected per loop label) into a config."""
    loops: dict[str, LoopDirective] = {}
    for label, pragmas in loop_pragmas.items():
        pipeline = False
        ii = 0
        unroll = 1
        flatten = False
        for pragma in pragmas:
            if pragma.kind is PragmaKind.PIPELINE:
                pipeline = not pragma.off
                ii = pragma.ii
            elif pragma.kind is PragmaKind.UNROLL:
                unroll = max(1, pragma.factor) if pragma.factor else 0
            elif pragma.kind is PragmaKind.LOOP_FLATTEN:
                flatten = not pragma.off
        if pipeline or unroll != 1 or flatten:
            loops[label] = LoopDirective(
                pipeline=pipeline, ii=ii, unroll_factor=unroll or 1, flatten=flatten
            )
    arrays: dict[str, ArrayDirective] = {}
    for pragma in array_pragmas:
        if pragma.kind is not PragmaKind.ARRAY_PARTITION:
            continue
        arrays[pragma.variable] = ArrayDirective(
            partition_type=pragma.partition_type,
            factor=max(1, pragma.factor),
            dim=pragma.dim,
        )
    return PragmaConfig.from_dicts(loops, arrays)


def _spec_int(value: str, spec: str) -> int:
    """``int(value)``, or a :class:`ValueError` naming the offending spec."""
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"invalid number {value!r} in {spec!r}") from None


def config_from_specs(
    loop_specs: list[str], array_specs: list[str]
) -> PragmaConfig:
    """Build a :class:`PragmaConfig` from directive spec strings.

    Loop specs look like ``L0_0=pipeline``, ``L0=unroll:4``,
    ``L0=pipeline+unroll:2`` or ``L0=flatten``; array specs look like
    ``A=cyclic:4:2`` (type : factor : dim).  This is the notation of the
    CLI's ``--loop``/``--array`` options and of the serving protocol's
    spec-string configurations.  An unknown directive, a non-integer number,
    an unknown partition type or an out-of-range value (see
    :class:`LoopDirective` and :class:`ArrayDirective`) raises
    :class:`ValueError` naming the spec.
    """
    loops: dict[str, LoopDirective] = {}
    for spec in loop_specs or []:
        label, _, directives = spec.partition("=")
        pipeline = flatten = False
        unroll = 1
        ii = 0
        for part in directives.split("+"):
            name, _, value = part.partition(":")
            name = name.strip().lower()
            if name == "pipeline":
                pipeline = True
                if value:
                    ii = _spec_int(value, spec)
            elif name == "unroll":
                unroll = _spec_int(value, spec) if value else 0
            elif name == "flatten":
                flatten = True
            elif name:
                raise ValueError(f"unknown loop directive {name!r} in {spec!r}")
        try:
            loops[label.strip()] = LoopDirective(
                pipeline=pipeline, ii=ii, unroll_factor=unroll, flatten=flatten
            )
        except ValueError as exc:
            raise ValueError(f"{exc} in {spec!r}") from None
    arrays: dict[str, ArrayDirective] = {}
    for spec in array_specs or []:
        name, _, directives = spec.partition("=")
        parts = directives.split(":")
        kind = parts[0].strip().lower()
        try:
            partition_type = PartitionType(kind)
        except ValueError:
            raise ValueError(
                f"unknown partition type {kind!r} in {spec!r}"
            ) from None
        factor = _spec_int(parts[1], spec) if len(parts) > 1 else 2
        dim = _spec_int(parts[2], spec) if len(parts) > 2 else 1
        try:
            arrays[name.strip()] = ArrayDirective(
                partition_type=partition_type, factor=factor, dim=dim
            )
        except ValueError as exc:
            raise ValueError(f"{exc} in {spec!r}") from None
    return PragmaConfig.from_dicts(loops, arrays)


__all__ = [
    "Pragma", "PragmaKind", "PartitionType", "parse_pragma",
    "LoopDirective", "ArrayDirective", "PragmaConfig", "config_from_pragmas",
    "config_from_specs",
]

"""Exception types shared across the package, and the rules a seed and a settings record's
fields meet."""

import functools
import types
import typing


class TabAlignError(Exception):
    """Base class for all package errors."""


class SchemaError(TabAlignError):
    """Schema file problems or header/schema mismatch."""


class ParseError(TabAlignError):
    """A cell value that cannot be parsed under its declared column kind."""


class FormatError(TabAlignError):
    """Structurally invalid input file."""


class SplitError(TabAlignError):
    """Dataset too small to give every class a presence in the test split."""


class EpisodeError(TabAlignError):
    """A class lacks enough test rows for the requested episode."""


class EncodingError(TabAlignError):
    """Raw value outside the fitted encoder's domain."""


class MaskError(TabAlignError):
    """Separation mask cannot be sampled for this schema."""


class ViewError(TabAlignError):
    """View construction on inputs of the wrong width."""


class DimensionError(TabAlignError):
    """Matrix shapes incompatible with the layer stack."""


class LossError(TabAlignError):
    """Loss inputs violate the batch contract."""


class OptimizerError(TabAlignError):
    """Non-finite gradients or mismatched optimizer state."""


class TrainingError(TabAlignError):
    """Pretraining aborted: non-finite loss or unusable training data."""


class HeadError(TabAlignError):
    """Few-shot classification head cannot be applied."""


class AnalysisError(TabAlignError):
    """Neighborhood diagnostics asked for more neighbors than rows exist."""


class CheckpointError(TabAlignError):
    """Malformed or incompatible checkpoint file."""


class ConfigError(TabAlignError):
    """Invalid run configuration."""


def check_seed(seed, name: str = "seed") -> int:
    """``seed`` if it is an int >= 0 that is not a bool; raises :class:`ConfigError` otherwise."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"{name} must be an int >= 0, got {seed!r}")
    return seed


@functools.cache
def _field_types(cls: type) -> dict[str, tuple[type, ...]]:
    """The classes each field admits: ``X | Y`` both, ``list[X]`` a list, ``float`` an int too."""
    hints = typing.get_type_hints(cls).items()
    unions = {n: typing.get_args(h) if isinstance(h, types.UnionType) else (h,) for n, h in hints}
    return {n: tuple(typing.get_origin(t) or t for t in ts + (int,) * (float in ts))
            for n, ts in unions.items()}


def check_fields(record, error: typing.Callable[[str], Exception], least: dict, choices: dict):
    """Raise ``error(message)`` unless each field of the dataclass ``record`` holds what its
    annotation admits (a bool is no int), is >= ``least`` unless None, and is in ``choices``."""
    for name, admitted in _field_types(type(record)).items():
        value, floor = getattr(record, name), f" >= {least[name]}" if name in least else ""
        if (not isinstance(value, admitted) or (type(value) is bool and bool not in admitted)
                or (floor and value is not None and not value >= least[name])):
            kinds = " or ".join(("an " if t is int else "a ") + t.__name__
                                for t in admitted if t is not types.NoneType)
            raise error(f"{name} must be {kinds}{floor}, got {value!r}")
        if name in choices and value not in choices[name]:
            raise error(f"unknown {name} {value!r}, expected one of {', '.join(choices[name])}")

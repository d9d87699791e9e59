"""Exception types shared across the package, and the rules a seed and a settings record's
fields meet."""

import functools
import types
import typing


class TabAlignError(Exception):
    """Base class for all package errors."""


class UsageError(TabAlignError):
    """An input the caller handed in does not fit the call; the CLI exits 2 on it."""


class ConfigError(UsageError):
    """Invalid run configuration."""


class SchemaError(UsageError):
    """Schema file problems or header/schema mismatch."""


class ParseError(UsageError):
    """A cell value that cannot be parsed under its declared column kind."""


class FormatError(UsageError):
    """Structurally invalid input file."""


class SplitError(UsageError):
    """Dataset too small for the split or the run it feeds."""


class EpisodeError(UsageError):
    """A class lacks enough test rows for the requested episode."""


class MaskError(UsageError):
    """Separation mask cannot be sampled for this schema."""


class AnalysisError(UsageError):
    """Neighborhood diagnostics asked for more neighbors than rows exist."""


class CheckpointError(UsageError):
    """Malformed or incompatible checkpoint file."""


class ArrayError(TabAlignError):
    """Arrays that break a kernel's shape, dtype or finiteness contract."""


class TrainingError(TabAlignError):
    """Pretraining aborted on a non-finite loss."""


class HeadError(TabAlignError):
    """Few-shot classification head cannot be applied."""


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

"""The accepted range of each numeric setting, declared once.  A value
outside reads ``<name> must be <range text>, got <value>``; no range
admits a bool, a NaN or an infinity.  Imports no other mixkd module."""

from __future__ import annotations

import argparse
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable


@dataclass(frozen=True)
class Range:
    text: str
    test: Callable[[float], bool]
    integer: bool = False  # admit only integers (numbers.Integral)

    def admits(self, value) -> bool:
        kind = numbers.Integral if self.integer else numbers.Real
        return (isinstance(value, kind) and not isinstance(value, bool)
                and (self.integer or math.isfinite(value)) and self.test(value))

    def check(self, name: str, value, error=ValueError):
        """``value``, or ``error`` naming ``name`` if it lies outside."""
        if not self.admits(value):
            raise error(f"{name} must be {self.text}, got {value!r}")
        return value

    def __call__(self, text: str):
        """``text`` as a checked int or float: an argparse ``type=``, which
        puts the flag in front of the message, and the config parser's."""
        try:
            value = int(text) if self.integer else float(text)
        except ValueError:
            value = text  # which no range admits
        if not self.admits(value):
            raise argparse.ArgumentTypeError(
                f"must be {self.text}, got {value!r}")
        return value


COUNT = Range("an int >= 1", lambda v: v >= 1, integer=True)
INDEX = Range("an int >= 0", lambda v: v >= 0, integer=True)
# a sequence holds at least [CLS], one token and [SEP]
SEQ_LEN = Range("an int >= 3", lambda v: v >= 3, integer=True)
POSITIVE = Range("finite and positive", lambda v: v > 0)
NONNEGATIVE = Range("finite and nonnegative", lambda v: v >= 0)
RATE = Range("in [0, 1)", lambda v: 0 <= v < 1)
FRACTION = Range("in (0, 1]", lambda v: 0 < v <= 1)
FINITE = Range("finite", lambda v: True)


def setting(accepted: Range, default=MISSING):
    """A dataclass field whose values must lie in ``accepted``."""
    return field(default=default, metadata={"range": accepted})


def check_fields(instance, error=ValueError) -> None:
    """``error`` naming the first field of ``instance`` outside its range."""
    for f in fields(instance):
        if "range" in f.metadata:
            f.metadata["range"].check(f.name, getattr(instance, f.name), error)

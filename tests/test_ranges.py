"""Each numeric setting declares its accepted range once (mixkd.ranges),
and every config field and CLI flag is checked against a declaration."""

import argparse
import math
import re
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np
import pytest

from mixkd import ranges
from mixkd.cli import build_parser
from mixkd.distill import LossWeights, TrainConfig
from mixkd.mixup import MixupConfig
from mixkd.model import ModelConfig
from mixkd.ranges import (COUNT, FINITE, FRACTION, INDEX, NONNEGATIVE,
                          POSITIVE, RATE, Range, check_fields, setting)

CONFIGS = (TrainConfig, MixupConfig, LossWeights, ModelConfig)


def test_every_numeric_config_field_declares_a_range():
    for cls in CONFIGS:
        hints = get_type_hints(cls)
        for f in fields(cls):
            if hints[f.name] in (int, float):
                accepted = f.metadata.get("range")
                assert isinstance(accepted, Range), f"{cls.__name__}.{f.name}"
                assert accepted.integer == (hints[f.name] is int), f.name


def _flags(parser, command=()):
    """(command, action) for every flag of every (sub)command."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _flags(sub, command + (name,))
        elif action.option_strings:
            yield command, action


def test_every_numeric_flag_converts_with_a_range():
    """The bound calculators check their own arguments (exit 4), so their
    flags keep int and float; --seed only seeds generators."""
    seen = 0
    for command, action in _flags(build_parser()):
        numeric = (action.type is not None
                   or type(action.default) in (int, float))
        exempt = command[:1] == ("bound",) and action.dest != "seed"
        if numeric and not exempt:
            seen += 1
            assert isinstance(action.type, Range), (command, action.dest)
    assert seen == 9


@pytest.mark.parametrize("accepted, inside, outside", [
    (COUNT, [1, 2 ** 70, np.int64(3)], [0, -1, 1.0, 1.5, True, "1", None]),
    (INDEX, [0, 7], [-1, 0.0, False, math.nan]),
    (POSITIVE, [1e-300, 1, 1e308], [0.0, -1.0, math.inf, math.nan, True]),
    (NONNEGATIVE, [0, 0.0, 2.5], [-1e-300, math.inf, math.nan]),
    (RATE, [0.0, 0.999], [1.0, -0.1, math.nan]),
    (FRACTION, [1e-9, 1.0, np.float64(0.5)], [0.0, 1.0001, math.nan]),
    (FINITE, [-1e308, 0, 3.5], [math.inf, -math.inf, math.nan, "0", 1j]),
])
def test_range_edges(accepted, inside, outside):
    for value in inside:
        assert accepted.check("x", value) is value
    for value in outside:
        with pytest.raises(ValueError, match=f"^x must be "
                                             f"{re.escape(accepted.text)}, "
                                             f"got {re.escape(repr(value))}$"):
            accepted.check("x", value)


def test_range_as_argparse_type():
    assert COUNT("3") == 3 and FRACTION("0.25") == 0.25
    for accepted, text, shown in ((COUNT, "0", "0"), (COUNT, "1.5", "'1.5'"),
                                  (FRACTION, "nan", "nan"),
                                  (INDEX, "", "''")):
        with pytest.raises(argparse.ArgumentTypeError) as info:
            accepted(text)
        assert str(info.value) == f"must be {accepted.text}, got {shown}"


def test_check_fields_names_the_first_field_out_of_range():
    @dataclass
    class Settings:
        size: int = setting(COUNT, 1)
        rate: float = setting(RATE, 0.0)
        name: str = "free"

    check_fields(Settings())
    with pytest.raises(KeyError, match="rate must be in"):
        check_fields(Settings(rate=1.0), KeyError)
    with pytest.raises(ValueError, match="^size must be an int >= 1, got 0$"):
        check_fields(Settings(size=0, rate=-1.0))


@pytest.mark.parametrize("build, name", [
    (lambda: TrainConfig(epochs=math.nan), "epochs"),
    (lambda: TrainConfig(batch_size=math.inf), "batch_size"),
    (lambda: TrainConfig(seed=math.nan), "seed"),
    (lambda: TrainConfig(epochs=2.0), "epochs"),
    (lambda: ModelConfig(1, 16, 2, 32, math.nan, 14, 2), "vocab_size"),
    (lambda: ModelConfig(True, 16, 2, 32, 40, 14, 2), "num_layers"),
], ids=["nan_epochs", "inf_batch_size", "nan_seed", "float_epochs",
        "nan_vocab_size", "bool_depth"])
def test_configs_reject_values_outside_their_ranges(build, name):
    """NaN, an infinity, a float or a bool in an int field passed the old
    comparisons (NaN < 1 is false)."""
    with pytest.raises(ValueError, match=f"^{name} must be an int >= "):
        build()


def test_ranges_imports_no_mixkd_module():
    source = open(ranges.__file__).read()
    assert "from ." not in source and "import mixkd" not in source

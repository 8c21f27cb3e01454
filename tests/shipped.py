"""The shipped settings, ``default.yaml``'s, as the tests build on them."""

from dataclasses import replace

from basepar.parallel import OptimizerConfig
from basepar.scenario import default_scenario


def optimizer(**overrides) -> OptimizerConfig:
    """The solver settings of the shipped scenario's ``control`` section,
    built as a run builds them, with ``overrides`` replacing fields."""
    return replace(default_scenario().control.optimizer(), **overrides)

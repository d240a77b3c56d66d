"""Continual-learning benchmark harness for sequential classification streams."""

import math
import numbers

__version__ = "0.1.0"


def _is_count(value, least: int) -> bool:
    """An int >= least that is not a bool (JSON true would pass as 1)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _is_number(value) -> bool:
    """A finite real that is not a bool (JSON true would pass as 1)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)

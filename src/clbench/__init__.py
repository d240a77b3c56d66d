"""Continual-learning benchmark harness for sequential classification streams."""

__version__ = "0.1.0"

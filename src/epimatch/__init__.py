"""Epipolar-supervised coarse-to-fine matching toolkit."""

__version__ = "0.1.0"

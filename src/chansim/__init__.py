"""Classical simulation certificates for quantum and general-probabilistic channels."""

from . import certify, channels, linalg, lp, majorize, minnorm, mixdisc, simulate, transport

__all__ = [
    "certify",
    "channels",
    "linalg",
    "lp",
    "majorize",
    "minnorm",
    "mixdisc",
    "simulate",
    "transport",
]

__version__ = "0.1.0"

"""Argument types shared by the command-line front ends."""

from __future__ import annotations

import argparse

__all__ = ["positive_int"]


def positive_int(text: str) -> int:
    """argparse ``type=`` for counts: an integer >= 1.

    Anything else is a usage error (exit status 2), not a traceback
    from deeper in the program.
    """
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count

"""`python -m coupledfp` runs the command line."""

from .cli import entry

entry()

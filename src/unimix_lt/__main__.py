"""`python -m unimix_lt` runs the command-line interface."""

from .cli import entrypoint

entrypoint()

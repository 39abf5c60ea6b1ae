"""``python -m goldenschur``: the command line, through :func:`.cli.run`."""

from .cli import run

run()

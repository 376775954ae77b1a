"""``python -m zham``: the ``zham`` command line."""

from .cli import run

run()

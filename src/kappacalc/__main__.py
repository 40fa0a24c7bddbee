from .cli import _run

_run()

"""``python -m cantor_coarse``: the process entry ``cli.entry``, shared
with the ``cantor-coarse`` script, which ends the process with
``os._exit`` once its outputs are flushed."""

from .cli import entry

if __name__ == "__main__":
    entry()

"""``python -m diagonalis``: the command line of :mod:`diagonalis.cli`."""

from .cli import main

main()

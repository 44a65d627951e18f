"""Closed-loop benchmark of diagonalis; run ``python3 perfbench/run.py --help``."""

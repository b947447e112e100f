"""The repository benchmark (see README.md); run it as ``python3 perfbench/run.py``."""

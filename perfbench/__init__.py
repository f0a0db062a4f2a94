"""Benchmark of the koopcontrol pipeline; run `python3 perfbench/run.py`."""

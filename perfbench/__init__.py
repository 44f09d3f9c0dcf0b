"""The repository benchmark: workloads, tracing and the runner (``perfbench/run.py``)."""

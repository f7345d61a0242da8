"""The name of the one simulation engine: the compiled kernel, or its interpreted tier."""

# perfbench/run.py reads this until its next benchmark change.
DEFAULT_ENGINE = "fast"

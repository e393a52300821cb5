"""Repository benchmark: workloads, span tracing and the ``run.py`` command."""

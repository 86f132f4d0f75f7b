"""Replay-throughput benchmark of the GRIT simulator (host side).

Times four named workloads end to end with tracing off; with
``--trace 1``, measures each simulator layer from outside instead, by
sampling the stack and counting calls.  Run it from the repository
root::

    python -m benchmarks.perf run [--workload NAME] [--seed N]
    python -m benchmarks.perf compare BASE.json... -- NEW.json...

See ``benchmarks/perf/README.md`` for the workloads, the metrics and
their bounds, and the protocol for claiming a gain.
"""

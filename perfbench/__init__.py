"""The repository's benchmark: four workloads driven through the public
entry points of the ``repro`` stack, with a traced per-layer split.

Run it from the repository root::

    python3 perfbench/run.py --workload serve-interactive --seed 1 \
        --seconds 10 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the
write-up of the first traced run.
"""

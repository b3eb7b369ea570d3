"""spreadlab's benchmark: four request workloads, timed end to end and per module.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; ``run.py`` documents the metrics and workloads.
"""

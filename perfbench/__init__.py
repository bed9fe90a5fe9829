"""One benchmark for the whole risk-analysis stack (see ``README.md`` here).

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root.
"""

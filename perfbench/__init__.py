"""The repository's end-to-end benchmark (see ``perfbench/README.md``).

Run every workload with ``python3 perfbench/run.py --all``.
"""

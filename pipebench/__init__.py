"""Whole-pipe ECG -> decision benchmark of the serving stack.

Run it as ``python3 pipebench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see
``pipebench/README.md``.
"""

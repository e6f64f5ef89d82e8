"""End-to-end benchmark of the tilediff CLI path with an outside-in layer trace.

Run it with `python3 bench/run.py --workload <name> --seed <n>`; see
bench/README.md.
"""

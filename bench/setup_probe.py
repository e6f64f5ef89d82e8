"""One set-up probe: what a `tilediff` run does before its first step.

    python3 bench/setup_probe.py SPEC_JSON

SPEC_JSON holds "argv" (the job's command line), "plans" ([height, width,
block] of each tile plan) and "src" (the tilediff source directory). The
probe imports tilediff in this fresh interpreter, parses the job, loads the
prior and the inputs, and plans the tiles. bench/run.py times the whole
process from outside, interpreter start-up included. It imports nothing
from the benchmark, so the harness adds no import time of its own.
"""

import json
import os
import sys


def main() -> int:
    spec = json.loads(sys.argv[1])
    import tilediff
    from tilediff import cli, denoise, imagecore, linops, msr

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(tilediff.__file__).startswith(src + os.sep):
        print(f"tilediff imported from {tilediff.__file__}, not {src}",
              file=sys.stderr)
        return 3
    _, job = cli.parse_job(spec["argv"])
    denoise.load_gmm_prior(job.prior)
    if job.input is not None:
        imagecore.load_image(job.input)
    if job.mask is not None:
        linops.load_mask(job.mask)
    for height, width, block in spec["plans"]:
        msr.plan_tiles(height, width, job.patch, job.overlap, block=block)
    return 0


if __name__ == "__main__":
    sys.exit(main())

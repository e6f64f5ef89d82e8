"""The benchmark's workloads: CLI jobs whose work is fixed by their shape.

Each workload is one `tilediff.cli.run_job` call on inputs that
bench/inputs.py writes from a seed. Tile count and steps per tile depend
only on the workload, never on the seed, so the denoiser call count of a
job is known in advance and checked by the guard.
"""

from __future__ import annotations

import dataclasses
import math


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    task: str            # "generate", "sr" or "inpaint"
    height: int          # output canvas
    width: int
    k: int               # GMM prior components
    steps: int           # diffusion steps T
    travel_l: int
    travel_r: int
    scale: int = 1       # SR factor
    sigma_y: float = 0.0
    hir_factor: int = 0
    patch: int = 64
    overlap: int = 32

    @property
    def clean(self) -> bool:
        """Clean measurement: consistency must hold to round-off."""
        return self.sigma_y == 0.0

    @property
    def block(self) -> int:
        block = self.scale if self.task == "sr" else 1
        if self.hir_factor >= 2:
            block = math.lcm(block, self.hir_factor)
        return block

    def plans(self) -> list[tuple[int, int, int]]:
        """(height, width, block) of every tile plan a job solves, in order:
        the coarse phase first when the hierarchy is on."""
        full = (self.height, self.width, self.block)
        if self.hir_factor < 2:
            return [full]
        f = self.hir_factor
        coarse_block = self.scale // f if self.task == "sr" else 1
        return [(self.height // f, self.width // f, coarse_block), full]

    @property
    def tiles(self) -> int:
        """Tiles per job, counted without tilediff's planner."""
        return sum(_positions(h, self.patch, self.overlap) *
                   _positions(w, self.patch, self.overlap)
                   for h, w, _ in self.plans())

    @property
    def steps_per_tile(self) -> int:
        # every length-l travel block is traversed r times
        return self.steps * self.travel_r

    @property
    def job_steps(self) -> int:
        return self.tiles * self.steps_per_tile

    def argv(self, inputs: dict, output: str, seed: int) -> list[str]:
        """The `tilediff` command line for this workload."""
        common = ["--prior", inputs["prior"], "--out", output,
                  "--seed", str(seed), "--steps", str(self.steps),
                  "--travel-l", str(self.travel_l),
                  "--travel-r", str(self.travel_r),
                  "--patch", str(self.patch), "--overlap", str(self.overlap),
                  "--sigma-y", repr(self.sigma_y),
                  "--hir-factor", str(self.hir_factor)]
        if self.task == "generate":
            return ["generate", "--width", str(self.width),
                    "--height", str(self.height)] + common
        argv = ["restore", "--task", self.task, "--in", inputs["input"]]
        if self.task == "sr":
            argv += ["--scale", str(self.scale)]
        if self.task == "inpaint":
            argv += ["--mask", inputs["mask"]]
        return argv + common


def _positions(size: int, patch: int, overlap: int) -> int:
    stride = patch - overlap
    n = (size - patch) // stride + 1
    return n + (1 if (size - patch) % stride else 0)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="gen-wide",
        why="49 tiles x 50 steps, all-unknown mask: per-tile fixed costs "
            "and the no-op projection dominate; the only workload where the "
            "tile DAG has room (25 levels)",
        task="generate", height=256, width=240, k=4,
        steps=50, travel_l=10, travel_r=1),
    Workload(
        name="sr-noisy",
        why="4x SR at sigma_y 0.05 with CLI default schedule: AvgPool and "
            "the DDNM+ coefficient path carry the work; 8 tiles, little "
            "tile parallelism",
        task="sr", height=96, width=160, k=4, scale=4, sigma_y=0.05,
        steps=100, travel_l=10, travel_r=3),
    Workload(
        name="inpaint-hir",
        why="large-hole inpainting with HiR factor 2 and K=16: the GMM "
            "posterior dominates, AvgPool runs as the low-frequency hook, "
            "Mask is partial, phase 1 is serial",
        task="inpaint", height=128, width=192, k=16, hir_factor=2,
        steps=20, travel_l=10, travel_r=2),
)}

"""Unlimited-size image restoration and generation with tiled,
null-space-projected diffusion sampling and analytic denoisers."""

from .imagecore import Image, Window, load_image
from .linops import (AvgPool, Gray, Identity, LinearOperator, Mask,
                     load_mask)
from .schedule import Schedule, build_schedule, renoise_jump
from .denoise import Denoiser, GmmDenoiser, load_gmm_prior
from .sampler import (ConstraintHooks, SamplerConfig, compute_lambda_gamma,
                      ddnm_plus_project, estimate_x0, run_sampler,
                      sample_prev)
from .msr import TilePlan, msr_restore, plan_tiles
from .hir import HirResult, hir_restore
from .tasks import (ColorizeTask, DenoiseTask, GenerateTask, InpaintTask,
                    SuperResolutionTask, Task)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

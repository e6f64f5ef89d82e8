"""Unlimited-size image restoration and generation with tiled,
null-space-projected diffusion sampling and analytic denoisers."""

from .imagecore import Image, Window, load_image, save_image
from .linops import (AvgPool, Gray, Identity, LinearOperator, Mask,
                     load_mask)
from .schedule import (Schedule, TravelPlan, build_schedule, forward_diffuse,
                       renoise_jump)
from .denoise import Denoiser, GmmDenoiser, ZeroDenoiser, load_gmm_prior
from .sampler import (ConstraintHooks, SamplerConfig, compute_lambda_gamma,
                      ddnm_plus_project, ddnm_project, estimate_x0,
                      run_sampler, sample_prev)
from .msr import Canvas, TilePlan, msr_restore, overlap_mask, plan_tiles
from .hir import HirResult, derive_phase1_task, hir_restore
from .tasks import (ColorizeTask, DenoiseTask, GenerateTask, InpaintTask,
                    SuperResolutionTask, Task)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

"""The committed reference protocol.

Every statistic frozen into the acceptance suite is produced by the runs
defined here; scripts/make_reference_values.py regenerates them.  The
reference values are the defaults of SceneConfig, TrainConfig and
MaskHeadConfig, and each variant names only the values it changes.
Three scenes share one geometry (3 parents x 3 children on a 64x64 grid,
16-d descriptors, seed 42):

  * REFERENCE_SCENE          noise-free, used for the exact-training and
                             mask-head targets;
  * REFERENCE_SCENE_NOISY    sigma = 0.25, used for the noisy-accuracy
                             and retrieval targets;
  * REFERENCE_SCENE_BOUNDARY sigma = 0.15 with 0.8 boundary blending,
                             used for every boundary-uncertainty
                             statistic (independent per-pixel noise alone
                             carries no boundary signal, so the blended
                             scene is where those claims are measurable).

The mask head's angle ablation (REFERENCE_MASK_HEAD_ABLATED, s_a = 1e9)
runs on REFERENCE_SCENE_ABLATION, the boundary scene at 32x32; its full
run is the one MASK_BOUNDARY_RECALL_FULL_MIN floors.
"""

from dataclasses import replace

from .maskhead import MaskHeadConfig
from .segtoy import SceneConfig, TrainConfig

REFERENCE_SCENE = SceneConfig()
REFERENCE_SCENE_NOISY = replace(REFERENCE_SCENE, noise_sigma=0.25)
REFERENCE_SCENE_BOUNDARY = replace(REFERENCE_SCENE, noise_sigma=0.15, edge_blend=0.8)
REFERENCE_SCENE_ABLATION = replace(REFERENCE_SCENE_BOUNDARY, height=32, width=32)

REFERENCE_TRAIN = TrainConfig()
# plain gradient descent on the mask head needs a step this small to
# descend: at lr 2e-3 the ablation's full run climbed on 145 of its 300
# steps, and its boundary recall moved with a 1e-14 scaling of the features
REFERENCE_MASK_TRAIN = replace(REFERENCE_TRAIN, lr=5e-4)

REFERENCE_MASK_HEAD = MaskHeadConfig()
REFERENCE_MASK_HEAD_ABLATED = replace(REFERENCE_MASK_HEAD, s_a=1e9)

# the held-out child class for the zero-shot mechanism runs
HELDOUT_CLASS = 4

"""The committed reference protocol.

Every statistic frozen into the acceptance suite is produced by the runs
defined here; scripts/make_reference_values.py regenerates them.  Three
scenes share one geometry (3 parents x 3 children on a 64x64 grid, 16-d
descriptors, seed 42):

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

EMBED_DIM = 8

REFERENCE_SCENE = SceneConfig(
    parents=3, children_per_parent=3, height=64, width=64,
    noise_sigma=0.0, edge_blend=0.0, descriptor_dim=16, seed=42,
)

REFERENCE_SCENE_NOISY = SceneConfig(
    parents=3, children_per_parent=3, height=64, width=64,
    noise_sigma=0.25, edge_blend=0.0, descriptor_dim=16, seed=42,
)

REFERENCE_SCENE_BOUNDARY = SceneConfig(
    parents=3, children_per_parent=3, height=64, width=64,
    noise_sigma=0.15, edge_blend=0.8, descriptor_dim=16, seed=42,
)

REFERENCE_SCENE_ABLATION = replace(REFERENCE_SCENE_BOUNDARY, height=32, width=32)

REFERENCE_TRAIN = TrainConfig(
    epochs=300, lr=0.5, lambda_w=0.5, tau=0.1, K=0.1, seed=42,
    weight_decay=1e-4, hidden=32, embed_dim=EMBED_DIM,
)

# plain gradient descent on the mask head needs a step this small to
# descend: at lr 2e-3 the ablation's full run climbed on 145 of its 300
# steps, and its boundary recall moved with a 1e-14 scaling of the features
REFERENCE_MASK_TRAIN = TrainConfig(
    epochs=300, lr=5e-4, lambda_w=0.5, tau=0.1, K=0.1, seed=42,
    weight_decay=1e-4, hidden=32, embed_dim=EMBED_DIM,
)

REFERENCE_MASK_HEAD = MaskHeadConfig(n_queries=12)
REFERENCE_MASK_HEAD_ABLATED = MaskHeadConfig(n_queries=12, s_a=1e9)

# the held-out child class for the zero-shot mechanism runs
HELDOUT_CLASS = 4

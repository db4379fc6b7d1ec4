"""Committed statistics of the reference protocol.

Measured by scripts/make_reference_values.py on the runs defined in
lorentzseg.reference; floors sit ~5 percent under the measured values so
the deterministic reruns clear them on any BLAS build.  Measured values
are quoted in the comments.
"""

# per-pixel reference runs
CLEAN_MIOU_EXACT = 1.0            # measured 1.0
CLEAN_AGREEMENT_MIN = 0.99        # measured 1.0
NOISY_MIOU_MIN = 0.90             # measured 0.941388
NOISY_AGREEMENT_MIN = 0.90        # measured 0.978271

# boundary-uncertainty margins on the blended reference scene
BOUNDARY_MARGIN_RADIUS_MIN = 168.0   # measured 177.870011
BOUNDARY_MARGIN_ANGLE_MIN = 0.67     # measured 0.715048
BOUNDARY_RECALL_ANGLE_P90_MIN = 0.70 # measured 0.745968
CONFIDENCE_GAP_MIN = 0.022           # measured 0.024508

# retrieval statistics on the noisy reference run
PARENT_CHILD_RECALL_MIN = 0.95       # measured 0.997768 (worst parent)
HELDOUT_RECALL_HYP_MIN = 0.55        # measured 0.588843
HELDOUT_RECALL_EUC_MEASURED = 0.126  # measured 0.126033 (context only)
CROSSLABEL_EXT_GAP_MIN = 2.3         # measured 3.095557 - 0.616973 = 2.478584

# mask-classification head
MASK_MIOU_EXACT = 1.0                   # measured 1.0
MASK_BOUNDARY_RECALL_FULL_MIN = 0.27    # measured 0.304167
# the angle-ablated head must localize boundaries worse than the full head
# (measured 0.141667)

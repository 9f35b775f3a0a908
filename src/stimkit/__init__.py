"""stimkit: head-motion window classification from pose keypoints.

Pipeline: 25-landmark keypoint frames -> head-region filtering -> 7-frame
stride-5 windows -> centered 64x64 skeleton rasters -> a shared per-frame
CNN feeding an LSTM -> binary prediction, evaluated with subject-disjoint
k-fold cross-validation. Optical-flow baselines (sparse grid tracking and
dense polynomial-expansion flow) are included for comparison rendering.
"""

__version__ = "0.1.0"

"""Multi-camera basketball action recognition at desk scale.

Stages: detection (multi-scale fusion and box regression), inflated-3D
feature extraction, divided space-time attention encoding, plus metrics,
a toy trainer, synthetic data, and a simulated IoT acquisition layer.
"""

__version__ = "0.1.0"

ACTION_LABELS = ("dribble", "shoot", "pass", "jump")

# The clip format every stage is built for: single-channel clips of FRAMES
# frames of FRAME_HW pixels, with one pose of JOINT_NAMES per frame.
FRAMES = 8
FRAME_HW = (16, 16)
JOINT_NAMES = ("head", "hand_l", "hand_r", "foot_l", "foot_r")

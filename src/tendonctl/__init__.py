"""Learning-based control stack for a tendon-driven robot on driving tasks.

Submodules:
  nets          dense MLPs with exact weight/input gradients; the JSON document reader
  plant         deterministic muscle-joint + car simulator (ground truth)
  static_ctrl   intersensory length model, online learning, EKF estimation
  dynamic_ctrl  learned task dynamics and command-sequence optimization
  reflex        tension QP, muscle relaxation control, safety reflex
  harness       reproducible experiment scenarios and reports
"""

from . import dynamic_ctrl, harness, nets, plant, reflex, static_ctrl

__all__ = ["nets", "plant", "static_ctrl", "dynamic_ctrl", "reflex", "harness"]
__version__ = "0.1.0"

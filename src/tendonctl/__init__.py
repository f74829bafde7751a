"""Learning-based control stack for a tendon-driven robot on driving tasks.

Submodules:
  documents     the typed reader and writer of every document, and its version rule
  nets          dense MLPs with exact weight/input gradients
  plant         deterministic muscle-joint + car simulator (ground truth)
  static_ctrl   intersensory length model, online learning, EKF estimation
  dynamic_ctrl  learned task dynamics and command-sequence optimization
  reflex        tension QP, muscle relaxation control, safety reflex
  harness       reproducible experiment scenarios and reports
"""

from . import documents, dynamic_ctrl, harness, nets, plant, reflex, static_ctrl

__all__ = ["documents", "nets", "plant", "static_ctrl", "dynamic_ctrl", "reflex", "harness"]
__version__ = "0.1.0"

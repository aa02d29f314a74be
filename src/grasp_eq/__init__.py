"""Force-aware grasp stability analysis and keypoint-guided pose synthesis."""

from .equilibrium import (EquilibriumSystem, QPResult, assemble,
                          assemble_from_contact_state, loss_gradient,
                          solve_force_existence, stability_energy,
                          stability_loss, stability_loss_masked)
from .errors import SolverError
from .force_codec import ForceBinning, build_binning, decode, encode, spread_force
from .hand import HandGeometry, HandPose, forward_kinematics
from .keypoints import (KeypointSet, PartCluster, cluster_contacts,
                        make_targets, select_clusters, select_keypoints)
from .optimizer import (GraspReport, OptimizationConfig, OptimizationTrace,
                        PipelineResult, evaluate_grasp, fit_keypoints,
                        optimize_grasp, register_global, run_pipeline)
from .scene import (CONTACT_RADIUS, CONTACT_THRESHOLD, GRAVITY, ContactState,
                    ObjectModel, compute_inertia, contact_map_from_hand)
from .synth import SyntheticScene, generate_contacts, generate_scene

__version__ = "0.1.0"

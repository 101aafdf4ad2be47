"""treeperm: finite permutation-group toolkit for tree-local-action criteria,
iterated wreath Sylow towers, Tate-theorem checks, colored tree-ball
automorphism groups, and rigid-stabilizer Boolean lattices."""

from .config import Caps, DEFAULT_CAPS, DEFAULT_SEED, TOOL_VERSION
from .errors import InputError, ResourceLimitError
from .perms import Permutation, commutator, parse_cycles
from .groups import (PermGroup, alternating, cyclic, dihedral, frobenius20,
                     klein4, named_group, parse_group_spec, symmetric, trivial)
from .portraits import Portrait, flatten, identity_portrait, portrait_compose, portrait_inverse
from .wreath import WreathTower, direct_square, rigid_stabilizer, sylow_tower, wreath_tower
from .treeball import TreeBall, build_ball, is_legal, is_valid_coloring, legal_coloring
from .localact import (BallGroup, Graft, ball_stabilizer_group, defect_set, edge_ball_group,
                       in_Uc, local_action)
from .lattice import cone_bits, lattice_check_pair, lattice_sweep, rist
from .series import (frattini_quotient_rank, p_residual, pi_core, sylow_subgroup,
                     tate_check)
from .subgroups import enumerate_subgroups_up_to_conjugacy
from .criteria import CriterionReport, eta_estimate, evaluate, survey

__version__ = TOOL_VERSION

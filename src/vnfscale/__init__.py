"""Joint traffic load-balancing and VNF horizontal scaling toolkit."""

from .topology import (NodeId, Topology, build_fat_tree, forwarding_cost,
                       neighbors, topology_listing, PM, TOR, AGG, CORE,
                       DEFAULT_LAYER_COSTS, UNLIMITED)
from .chain_state import (Thresholds, VmInstance, VnfGroup, classify_group,
                          classify_chain, required_instances, OVERLOAD,
                          UNDERLOAD, NORMAL, ClassificationError)
from .scaling import (ScalingProblem, ScalingDecision, Penalties, Weights,
                      build_overload_lp, build_underload_lp, decode,
                      uniform_capacity, forwarding_cost_of,
                      baseline_forwarding_cost, decision_csv, flows_csv,
                      ModelInfeasibleError, DecodeError)
from .milp import (MilpProblem, MilpSolution, build_milp, solve_milp,
                   deployment_cost, placement_table)
from .rpadmm import (AdmmConfig, AdmmRecord, AdmmTrace, ReformulatedSystem,
                     reformulate, system_from_model, lift_point, run,
                     scalar_block_update, normalized_violations,
                     agent_partition, message_footprint, DUAL_NAMES,
                     UnboundedUpdateError, AdmmDivergenceError)
from .scenario import (Scenario, RunReport, CompareReport, ScenarioParseError,
                       load_scenario, run_scenario, sweep_topologies,
                       compare_solvers)

__version__ = "0.1.0"

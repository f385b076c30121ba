"""Joint traffic load-balancing and VNF horizontal scaling toolkit."""

from .topology import (NodeId, Topology, build_fat_tree, forwarding_cost,
                       neighbors, topology_listing, pm_name, PM, TOR, AGG,
                       CORE, DEFAULT_LAYER_COSTS)
from .chain_state import (Thresholds, VmInstance, VnfGroup, classify_group,
                          required_instances, OVERLOAD, UNDERLOAD, NORMAL,
                          ClassificationError)
from .scaling import (ScalingProblem, ScalingDecision, build_overload_lp,
                      build_underload_lp, decode, uniform_capacity,
                      baseline_forwarding_cost, decision_table, decision_csv,
                      flows_csv, ModelInfeasibleError, DecodeError)
from .milp import (MilpProblem, MilpSolution, build_milp, solve_milp,
                   BudgetExhaustedError)
from .rpadmm import (AdmmConfig, AdmmRecord, AdmmTrace, ReformulatedSystem,
                     reformulate, run, scalar_block_update, message_footprint,
                     UnboundedUpdateError, AdmmDivergenceError)
from .scenario import (Scenario, RunReport, CompareReport, ScenarioParseError,
                       load_scenario, run_scenario, sweep_topologies,
                       compare_solvers)

__version__ = "0.1.0"

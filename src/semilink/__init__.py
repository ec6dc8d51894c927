"""Disjoint-path linkage machinery for tournaments and semicomplete digraphs.

The package bundles a dense digraph core, structured tournament generators,
unit-capacity flow kernels for vertex-disjoint paths and exact vertex
connectivity, nearly-dominating-vertex tools, a constructive pairwise
linker with verifiable certificates, a structured family of hard instances,
and exhaustive oracles for small cases.
"""

__version__ = "0.1.0"

from .certificates import CertificateError, verify_linkage_certificate
from .counterexample import (CounterexampleLayout, CounterexampleParams,
                             build_counterexample, sampled_connectivity_check,
                             verify_construction_rules, verify_property_two)
from .digraph import (Digraph, Path, PathSystem, digraph_from_arc_list,
                      digraph_to_arc_list, is_semicomplete, is_tournament,
                      reduce_to_minimal_path)
from .dominators import (count_two_paths, find_nearly_in_dominating,
                         find_nearly_out_dominating,
                         is_nearly_in_dominating_set,
                         nearly_in_dominating_profile,
                         nearly_out_dominating_profile)
from .flows import (CutCertificate, FlowInfeasible, LocalCut, is_k_connected,
                    local_cut, max_disjoint_paths, min_weight_disjoint_paths,
                    vertex_connectivity)
from .generators import (bipartite_tournament, near_regular_tournament,
                         random_semicomplete, random_tournament,
                         rotational_tournament, transitive_tournament)
from .linker import (FailureReport, LinkageCertificate, LinkageInstance,
                     LinkerTrace, link)
from .oracle import (OracleAnswer, OracleBudget, exists_disjoint_linkage,
                     max_disjoint_ST_paths_bruteforce)

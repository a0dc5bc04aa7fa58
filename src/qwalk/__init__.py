"""Continuous-time quantum walk simulation toolkit."""

from .graphs import (
    Graph,
    generate_glued_tree,
    generate_hypercube,
    generate_cycle,
    generate_path,
    generate_star,
    generate_complete,
    generate_erdos_renyi,
    generate_scale_free,
    cartesian_power,
    permute_graph,
    brute_force_isomorphic,
)
from .evolution import (
    HermitianOperator,
    evolve_quantum,
    evolve_classical,
    classical_generator,
    limiting_distribution,
    time_average_distribution,
    tv_distance,
    basis_state,
    uniform_state,
    measure,
)
from .particles import (
    ParticleKind,
    DISTINGUISHABLE,
    BOSON,
    FERMION,
    phased,
    ExtendedBasis,
    build_extended_hamiltonian,
    extended_graph,
    two_particle_correlation,
    correlation_via_extended_walk,
)
from .dynamics import (
    ConvergenceError,
    HittingResult,
    MixingResult,
    quantum_hitting,
    classical_hitting,
    hitting_scaling,
    quantum_mixing_time,
    classical_mixing_time,
)
from .applications import (
    CentralityReport,
    SearchResult,
    GraphCertificate,
    eigenvector_centrality,
    qw_centrality,
    spatial_search,
    graph_certificate,
    gi_test,
)
from .topology import TopoModel, build_topo_model, amcd, amcqm

__version__ = "0.1.0"

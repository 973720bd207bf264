"""macx: homological and combinatorial invariants of moment-angle complexes
over small simplicial complexes."""

from .simplicial import (
    MAX_VERTICES,
    SimplicialComplex,
    StarClassification,
    chordless_cycle,
    classify_star_condition,
    clique_complex,
    find_induced_cycles,
    is_chordal,
    is_cycle,
    is_flag,
    is_minimally_non_chordal,
    join_factors,
)
from .homology import (
    BigradedTable,
    HomologyGroup,
    betti_Z,
    bigraded_homology_Z,
    homology_R,
    reduced_homology,
)
from .classify import (
    NonFlagError,
    RelatorWord,
    build_report,
    minimally_non_golod_flag,
    one_relator_algebra_homological,
    one_relator_group_homological,
    surface_genus,
    vanishing_check,
    y_space_homology,
)
from .generators import (
    GeneratorSet,
    enumerate_generators,
    generator_count,
)
from .loop_algebra import (
    FreeDGAlgebra,
    GradedSeries,
    SphereProductSum,
    adams_hilton_model,
    dga_homology_ranks,
    mcgavran,
    poincare_series_closed,
    rank_oracle_monomials,
)
from .sweep import SweepConfig, SweepReport, run_sweep

__version__ = "0.1.0"

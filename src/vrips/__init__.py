"""Vietoris-Rips homology of finite semi-uniform spaces.

The package builds flag complexes from reflexive relations on finite
point sets, computes simplicial homology and cohomology with exact
integer and field arithmetic, evaluates limits over semi-uniform bases,
and mechanically verifies the classical homology axioms (dimension,
excision, homotopy, exactness) on concrete instances.
"""

__version__ = "0.1.0"

from .relations import (
    FiniteSpace,
    Relation,
    SemiPseudometric,
    SemiUniformBase,
    check_pq_continuity,
    check_uniform_continuity,
    graph_relation,
    metric_relation,
    product_relation,
    relation_image,
    relation_intersect,
    relation_inverse,
    relativize,
    scale_base,
    symmetric_part,
)
from .closure import (
    AdditiveClosure,
    Cover,
    closure_of_set,
    cover_refines,
    graph_closure_space,
    ii_relation,
    interior_set,
    is_interior_cover,
    metric_closure_space,
    vietoris_relation,
)
from .complexes import (
    ComplexPair,
    Inclusion,
    SimplicialComplex,
    SimplicialVertexMap,
    are_contiguous,
    clique_complex,
    cover_complex,
    explicit_complex,
    full_subcomplex,
    nerve_of_cover,
    pair_complex,
    simplicial_map,
    vr_complex,
)
from .homology import (
    INTEGERS,
    RATIONALS,
    Coefficients,
    HomologyResult,
    InducedMapResult,
    IntegerMatrix,
    SNFResult,
    check_les_exactness,
    cohomology,
    homology,
    induced_map,
    prime_field,
    smith_normal_form,
)
from .semiuniform import (
    AxiomVerdict,
    LimitReport,
    NoMinimumError,
    check_excision_hypothesis,
    check_interval_acyclic,
    limit_homology,
    verify_dimension,
    verify_dowker,
    verify_excision,
    verify_functoriality,
    verify_homotopy_cylinder,
)

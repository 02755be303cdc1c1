"""Exact computation of the opposed-big-cell intersection in the G2 flag variety.

The package recomputes, in exact rational arithmetic, the Deodhar
decomposition of the intersection of the two opposed big cells of the
real flag variety of type G2, classifies every cell into its connected
component through the Berenstein-Zelevinsky Chamber Ansatz, and tallies
the Euler characteristic of each component.

One representation carries the group: the 7-dimensional fundamental
representation V7, over the integers.  The generalized minors of level 1
are entries of its matrices and those of level 2 are 2x2 minors, read
through the exterior square of V7.
"""

from .weyl import (
    G2_CARTAN,
    Subexpression,
    W,
    WORD_I,
    WORD_I_TILDE,
    Weight,
    WeylElement,
    WeylGroup,
    enumerate_distinguished,
)
from .rep import (
    GroupElement,
    Representation,
    build_representations,
    coweight,
    group_identity,
    group_product,
    is_lower,
    is_unipotent_lower,
    is_unipotent_upper,
    is_upper,
    sdot,
    sdot_inverse,
    wdot,
    x,
    y,
)
from .minors import (
    minor,
    minor_lower,
    symbolic_minors,
    weight_to_chamber,
)
from .chamber import (
    Factorization,
    NotFactorizable,
    alpha_factorize,
    closed_form_alpha,
    closed_form_epsilon,
    epsilon_factorize,
    flag_equal_opposed,
)
from .deodhar import (
    CellId,
    bruhat_position_mixed,
    bruhat_position_plus,
    cell_by_display,
    cell_point,
    families,
    family_by_name,
    position_chain,
    verify_cell_chain,
)
from .components import (
    ClassificationReport,
    build_overlap_graph,
    compute_figure1,
    connected_components,
)

__version__ = "0.1.0"

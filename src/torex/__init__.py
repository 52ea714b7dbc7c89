"""Excess-intersection calculus for Torelli pullbacks of product loci.

The package computes, with exact rational arithmetic: the extremal trees
indexing the strata of the pullback of a product locus, their excess
contributions (by recursion and by a closed Taylor-part formula), the
decorated boundary-strata expression ready for external
tautological-ring software, the lambda-class ring of the moduli of
abelian varieties with its virtual product classes, the vanishing of
intersections of product loci, and the Bernoulli/Hodge-integral
constants tying everything together.
"""

# set before the submodules load: the contribution cache stamps it
__version__ = "0.1.0"

from .polyring import Poly
from .trees import ExtremalTree, Smoothing, depth, enumerate_trees, mon, smoothings
from .excess import (
    Contribution,
    all_contributions,
    base_contribution,
    pixton_contribution,
    tree_contribution,
)
from .strata import StrataExpression, assemble_pullback, serialize, substitute_stratum
from .agring import (
    reduce,
    schur_wedge2,
    socle_generator,
    socle_pairing,
    taut_projection_delta,
    virtual_class_product,
)
from .constants import (
    bernoulli,
    hodge_constants,
    product_coefficient,
    series_identity_check,
)
from .products import (
    Partition,
    RefinementComponent,
    euler_tensor_reduce,
    extremal_refinements,
    hodge_split_pullback,
    zeroint_check,
)

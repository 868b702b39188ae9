"""Exact invariants of algebraic tori presented as finite-group lattices.

The function ``cohomology`` is re-exported over its submodule's name, so
``import toruskit.cohomology as c`` binds the function;
``importlib.import_module("toruskit.cohomology")`` gives the module.
"""

from .arith import (AbelianGaloisDatum, Decomposition, DirichletCharacter,
                    ResidueResult, characters, decompose, dirichlet_L1,
                    frobenius, local_artin_factor, primes_up_to, residue)
from .cohomology import (RestrictionMap, SplittingEnumeration, cohomology,
                         enumerate_splittings, restriction_map, sha2_cyclic,
                         tate_h0)
from .errors import (EnumerationBoundError, InternalInvariantError, PoleError,
                     RamifiedPrimeError, UnsupportedRequestError)
from .groups import (FiniteGSet, FiniteGroup, Subgroup, all_subgroups,
                     coset_gset, cyclic_group, cyclic_subgroups,
                     cyclotomic_quotient_group, index_two_subgroups,
                     make_group, orbits, product_group, subgroup_closure,
                     trivial_subgroup)
from .lattices import (FGAbelian, GLattice, GModulePresentation, direct_sum,
                       dual, glattice, induce, invariants,
                       permutation_lattice, presentation_mod, quotient_lattice,
                       regular_lattice, restrict, sign_lattice,
                       trace_character, trivial_lattice)
from .tamagawa import (GmAdelicCheck, canonical_coefficients, gm_adelic_check,
                       local_volume, tamagawa_number)
from .tori import (LatticeMap, RankProfile, RealClassification, Torus,
                   classify_real, dual_torus, isogenous, make_torus,
                   norm_character, rank_profile)

__version__ = "0.1.0"

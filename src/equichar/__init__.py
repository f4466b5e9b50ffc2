"""Exact invariants of finite group actions on flag complexes.

Integer and rational arithmetic throughout: Smith normal form homology,
subgroup posets and their order complexes, equivariant Euler classes of
finite group actions, Cohen-Macaulay and duality checks, the doubling
construction, and verified acyclic extensions of Moore complexes.
"""

from .errors import (ConsistencyError, InputError, PreconditionError,
                     ResourceLimitError)
from .exactlin import (ChainComplexZ, HomologyGroup, IntegerMatrix, augment,
                       cohomology, homology, homology_mod_p, is_prime,
                       prime_power_base, rank_mod_p, smith_normal_form)
from .permgrp import (FiniteGroup, Permutation, Subgroup, SubgroupClass,
                      all_subgroups, centralizer,
                      conjugacy_classes_of_subgroups, elementary_abelian_rank,
                      group_from_generators, is_abelian, is_cyclic,
                      is_elementary_abelian, is_elementary_abelian_any,
                      is_nilpotent, is_normal, is_p_group, normalizer)
from .simp import (Embedding, GroupAction, SimplicialComplex,
                   complex_of_chains, find_full_subcomplex_isomorphic)
from .posets import (FinitePoset, PosetComparison, WeylPosetReport,
                     elementary_abelian_euler_formula, homology_tables_equal,
                     poset_strictly_above, quillen_thevenaz_check,
                     subgroup_poset, weyl_poset_check)
from .euler import (AcyclicityReport, EulerClass, acyclicity_condition,
                    elementary_abelian_classes, euler_class,
                    euler_class_coefficient, euler_class_cyclic,
                    free_coefficient, vanishing_identity)
from .duality import (CMReport, DualityReport, GradedProfile,
                      ObstructionReport, cohen_macaulay, double_along,
                      duality_obstruction_scan, flag_duality,
                      graded_cohomology_profile)
from .jones import (EquivariantComplex, ExtensionResult, cyclic_extension,
                    fixed_part, moore_complex, reduced_homology_of,
                    rp2_complex, verify_acyclic)

__version__ = "0.1.0"

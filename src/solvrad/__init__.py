"""solvrad: verify conjugate-generation characterizations of the solvable
and nilpotent radicals on concrete finite permutation groups.

The radical membership criteria checked here: an element belongs to the
nilpotent radical iff all its two-conjugate subgroups are nilpotent
(Baer-Suzuki); to the solvable radical iff all its four-conjugate subgroups
are solvable, and - for elements of prime order > 3 - iff all its
two-conjugate subgroups are solvable; a group is solvable iff within every
conjugacy class all pairs generate solvable subgroups (equivalently, iff
every two-generated subgroup is solvable, Thompson's criterion).  Each
criterion is cross-verified against normal-closure oracles.
"""

__version__ = "0.1.0"

from .perm import (
    CycleFormatError,
    DegreeMismatchError,
    Permutation,
    commutator,
    compose,
    conjugate,
    inverse,
    order,
    parse_cycles,
    print_cycles,
)
from .bsgs import (
    Bsgs,
    CapExceededError,
    ConjugacyClass,
    GeneratorSet,
    MembershipError,
    build_bsgs,
    centralizer,
    class_of,
    conjugacy_classes,
    contains,
    enumerate_elements,
    normal_closure,
    random_element,
    same_subgroup,
)
from .structure import (
    RadicalResult,
    derived_subgroup,
    fitting_oracle,
    is_nilpotent,
    is_solvable,
    solvable_radical_oracle,
)
from .criteria import (
    BudgetExceededError,
    ClassPairVerdict,
    CriterionVerdict,
    ElementProfile,
    SharpnessReport,
    ThompsonVerdict,
    Witness,
    baer_suzuki_set,
    class_pair_solvability,
    four_conjugate_element_test,
    four_conjugate_radical,
    nonsolvable_witness_search,
    prime_order_elements,
    reduced_conjugate_orbit,
    thompson_test,
    transposition_triple_sharpness,
    two_conjugate_radical,
    two_conjugate_test,
)
from .zoo import (
    GroupFile,
    GroupFileError,
    GroupSpecError,
    PrimeFieldMatrix,
    construct,
    load_group_file,
    psl2_perm,
)

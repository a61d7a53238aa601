"""Multinomial lattices L(v) and their semidistributivity levels.

Submodules:

- ``perm_core``: permutations, inversion sets as bit rows, the clopen calculus.
- ``multinomial``: words of L(v), order, join/meet on the inversion-set
  rows of a word's letter positions, read straight back to a word.
- ``finite_lattice``: a generic finite-lattice engine (tables, irreducibles,
  arrows, pentagons, congruences, SD_n evaluation, D-path extraction), the
  one walk of the SD_n sequences of a triple (``sd_sequence``) and the one
  Kahn peel behind every longest-path and cycle question (``dag_heights``).
- ``irreducibles``: vector-encoded join/meet irreducibles of L(v), the kappa
  pairing, the explicit join-dependency relation and its graph.
- ``congruence``: congruences of L(v) as D-closed sets of join irreducibles.
- ``sd_engine``: witness triples and the dimension verdict for L(v).
- ``cli``: the ``multilat`` command-line front end.
"""

from .errors import CapExceeded, InternalInconsistency, MultilatError, NotALattice
from .finite_lattice import FiniteLattice
from .multinomial import MultVector, PathWord, parse_vector, parse_word, word_str

__all__ = [
    "CapExceeded",
    "FiniteLattice",
    "InternalInconsistency",
    "MultVector",
    "MultilatError",
    "NotALattice",
    "PathWord",
    "parse_vector",
    "parse_word",
    "word_str",
]

__version__ = "0.1.0"

"""Multinomial lattices L(v) and their semidistributivity levels.

Submodules:

- ``perm_core``: permutations as one-line tuples, inversion sets as bit
  rows, the clopen calculus.
- ``multinomial``: words of L(v), their order (containment of the
  inversion-set rows of a word's letter positions), and join/meet on those
  rows, read straight back to a word.
- ``order``: the pure-Python helpers every layer shares: the one walk of
  the SD_n sequences of a triple (``sd_sequence``), the one Kahn peel
  behind every longest-path and cycle question (``dag_heights``), the one
  union-find (D-graph components, Parikh connectivity), the size caps
  with their checks, and the cover-list reader and writer.
- ``finite_lattice``: a generic finite-lattice engine on numpy tables
  (irreducibles, arrows, the join dependency D and its closure D*,
  SD_n evaluation, D-path extraction).  It is the only module
  that imports numpy, and it is loaded only when a lattice is built, so
  ``import multilat`` stays numpy-free; ``multilat.FiniteLattice`` loads it
  on first access.
- ``irreducibles``: vector-encoded join/meet irreducibles of L(v), the kappa
  pairing, the explicit join-dependency relation and its graph.
- ``congruence``: congruences of L(v) as D-closed sets of join irreducibles.
- ``sd_engine``: witness triples and the dimension verdict for L(v).
- ``cli``: the ``multilat`` command-line front end.
"""

from .errors import CapExceeded, InternalInconsistency, MultilatError, NotALattice
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


def __getattr__(name: str):
    """``FiniteLattice`` on first access, importing numpy only then (PEP 562)."""
    if name == "FiniteLattice":
        from .finite_lattice import FiniteLattice
        return FiniteLattice
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

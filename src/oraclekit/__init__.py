"""Checked implementations of classic sequence and sparse-matrix tasks.

Each algorithm ships with an independent oracle and an executable
checker for its defining properties; the propcheck harness runs those
properties over deterministic random cases, and the parallel module
verifies the concurrent multiplication both with real threads and by
exhaustive interleaving exploration.

Public names are imported from their modules, for example
``from oraclekit.ghcsort import ghc_sort``; each module's ``__all__`` is
its public surface. Importing the package itself loads no module.
"""

__version__ = "0.1.0"

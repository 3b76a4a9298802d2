"""collatzlab: a computational laboratory for shortcut 3n+1 dynamics.

Exact trajectory arithmetic and identities, residue-class half-split tallies,
an+b generalizations with cycle certification, vectorized range sweeps, and
seeded drift statistics, all behind one CLI (see `collatzlab.cli`).  Import
from the modules, `collatzlab.<module>`; importing the package loads none of
them, so a command pays only for the modules it uses.
"""

__version__ = "0.1.0"

"""collatzlab: a computational laboratory for shortcut 3n+1 dynamics.

Exact trajectory arithmetic and identities, residue-class half-split tallies,
an+b generalizations with cycle certification, vectorized range sweeps, and
seeded drift statistics, all behind one CLI (see `collatzlab.cli`).  Import
from the modules, `collatzlab.<module>`; importing the package loads none of
them.  The CLI imports a command's runner (a `collatzlab.cli_*` module) and
the engines it calls only when that command runs, and every record is a
`typing.NamedTuple`, which loads no more modules: a command compiles and
imports only the code it runs.
"""

__version__ = "0.1.0"

"""numpy, imported at its first use rather than when the package loads.

numpy's import takes longer than the rest of the package's, and the
integer paths (`verify upper`, exact tables, `--help`, usage errors and
refusals planned before any array) never touch it.  Every module binds
``np`` from here: a stand-in whose first lookup of each attribute runs
``import numpy`` (just a ``sys.modules`` lookup once numpy is loaded) and
keeps the attribute, so later lookups cost what a module's do.  A second
thread that looks up an attribute meanwhile waits in that same import for
numpy's ``__init__`` to finish (the import system locks each module while
it executes), so no caller sees numpy half initialised.
``importlib.util.LazyLoader`` gives no such guarantee: on Python 3.11,
threads that touch its module while another runs numpy's ``__init__``
find attributes missing (``module 'numpy' has no attribute 'zeros'``).
"""


class _Deferred:
    """Imports numpy at the first attribute lookup and keeps what it hands out."""

    def __getattr__(self, name):
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)  # later lookups find it without this hook
        return value


np = _Deferred()

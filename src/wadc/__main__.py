"""The ``wadc`` process entry, behind ``python -m wadc`` and the ``wadc``
script: one process, one command, then exit."""

import gc
import importlib.util
import sys
import types

# numpy submodules that SciPy's array-API shim reads as attributes of
# numpy (``clone_module``) and that no wadc command runs, with what
# ``-X importtime`` timed importing each on a 2-core host (inclusive,
# median of 5-7 runs, the others deferred).
DEFERRED = (
    "numpy.f2py",        # 97 ms, charset_normalizer 45 ms of it
    "numpy.testing",     # 44 ms, unittest 7 ms of it
    "numpy.ma",          # 20 ms
    "numpy.polynomial",  # 3.4 ms
    "numpy.char",        # 1.2 ms
)

# The H-infinity path asks ``numpy.ma`` one question and nothing else:
# SciPy's input validator (``scipy._lib._util._asarray_validated``, behind
# ``eigvals`` in ``hinf_norm`` and the QR, QZ and LU calls of
# ``solve_discrete_are``) asks ``isMaskedArray``.  It is False for every
# object until ``numpy.ma.core`` has run, since a masked array is an
# instance of a class that module defines.  ``perfbench/setup_probe.py``
# and ``traced.py`` import ``wadc.*`` without this entry, so they still
# run ``numpy.ma`` and the modules above.
MASKED_PREDICATES = ("isMaskedArray",)


class _Unrun(types.ModuleType):
    """``numpy.ma`` before its code has run: reading an attribute it does
    not have runs it.  (``importlib.util.LazyLoader``'s stand-in runs on
    any attribute read, the predicates included.)"""

    def __getattr__(self, name):
        _run(self)
        return getattr(self, name)


def _run(module):
    """Run a stand-in's code into it; it is a plain module from then on."""
    module.__class__ = types.ModuleType
    module.__spec__.loader.exec_module(module)


def _masked_predicate(module, name):
    """``numpy.ma``'s predicate ``name``: False without running ``numpy.ma``
    while no masked array can exist, else the real predicate, so a
    reference taken before the load answers as the real one after it."""
    def predicate(x):
        if "numpy.ma.core" not in sys.modules:
            return False
        if type(module) is _Unrun:
            _run(module)
        return vars(module)[name](x)
    return predicate


def _defer(names):
    """Register a lazy stand-in for each module in ``names`` that is not
    imported yet: it is in ``sys.modules`` and an attribute of its parent,
    and its code runs on the first attribute read, so every caller gets
    the module it would have got.  ``numpy.ma``'s stand-in answers its
    predicates without running (``MASKED_PREDICATES``)."""
    for name in names:
        if name in sys.modules:
            continue
        spec = importlib.util.find_spec(name)
        if spec is None:
            continue
        if name == "numpy.ma":
            module = importlib.util.module_from_spec(spec)
            module.__class__ = _Unrun
            for pred in MASKED_PREDICATES:
                setattr(module, pred, _masked_predicate(module, pred))
        else:
            spec.loader = importlib.util.LazyLoader(spec.loader)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        sys.modules[name] = module
        parent, _, child = name.rpartition(".")
        # without it, numpy's module __getattr__ would import the name again
        setattr(sys.modules[parent], child, module)


_defer(DEFERRED)

from .cli import main  # noqa: E402  (after the stand-ins are registered)


def run():
    """Run the command on ``sys.argv`` and return its exit code.

    The numpy and SciPy imports leave about 28,600 objects (40,200 with
    the ``DEFERRED`` modules run) that live until exit in the collector's
    care, and the interpreter's finalization runs full collections over
    them whether or not the collector is enabled: most of the time a
    process takes to exit.  Frozen here, once ``cli`` and its imports are
    loaded, they are never scanned again; the run's own objects are
    collected as before.  ``cli.main`` leaves the collector as it is, for
    the callers that run it in a process of their own."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())

"""The ``wadc`` process entry, behind ``python -m wadc`` and the ``wadc``
script: one process, one command, then exit."""

import gc
import importlib.util
import sys

# numpy submodules that SciPy's array-API shim reads as attributes of
# numpy (``clone_module``) and that no wadc command runs, with what
# ``-X importtime`` timed importing each on a 2-core host (inclusive,
# median of 5-7 runs, the others deferred).  ``numpy.ma`` still loads on
# the H-infinity path: ``scipy.linalg.eigvals`` asks ``np.ma.isMaskedArray``.
DEFERRED = (
    "numpy.f2py",        # 97 ms, charset_normalizer 45 ms of it
    "numpy.testing",     # 44 ms, unittest 7 ms of it
    "numpy.ma",          # 20 ms
    "numpy.polynomial",  # 3.4 ms
    "numpy.char",        # 1.2 ms
)


def _defer(names):
    """Register a lazy stand-in for each module in ``names`` that is not
    imported yet: it is in ``sys.modules`` and an attribute of its parent,
    and its code runs on the first attribute read, so every caller gets
    the module it would have got."""
    for name in names:
        if name in sys.modules:
            continue
        spec = importlib.util.find_spec(name)
        if spec is None:
            continue
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
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

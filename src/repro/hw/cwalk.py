"""Build-once loader of the compiled cache-walk kernel.

``_walk.c`` holds the cache, TLB and predictor state, the reference
walks and the exact samplers (:mod:`repro.hw.sampling`); ``_walk.h``
declares them and doubles as the cffi ``cdef``.  On first import the
kernel is compiled in cffi API mode into this package's
``__pycache__`` by :func:`repro.cbuild.load`, which names, lands,
prunes and loads the build.  A failed build raises
:class:`ImportError`: the hardware model has no other implementation.
"""

from __future__ import annotations

from pathlib import Path

from repro import cbuild

_HERE = Path(__file__).resolve().parent
_HEADER = _HERE / "_walk.h"
_SOURCE = _HERE / "_walk.c"
CACHE_DIR = _HERE / "__pycache__"
_SUFFIX = cbuild.SUFFIX


def module_name() -> str:
    """Extension name: a digest of the C sources, the compiler flags and
    the interpreter ABI."""
    return cbuild.build_name("_repro_walk_", (_HEADER, _SOURCE))


def _build(name: str, scratch: Path) -> str:
    import cffi

    builder = cffi.FFI()
    builder.cdef(_HEADER.read_text())
    builder.set_source(name, '#include "_walk.c"',
                       include_dirs=[str(_HERE)], libraries=["m"],
                       extra_compile_args=list(cbuild.FLAGS))
    return builder.compile(tmpdir=str(scratch))


def load(cache_dir: Path = CACHE_DIR):
    """``(ffi, lib)`` of the kernel, building it into ``cache_dir`` once."""
    kernel = cbuild.load(
        module_name(), _build, cache_dir,
        "repro.hw could not build its compiled cache-walk kernel: it needs "
        "the cffi package (with setuptools) and a C compiler (cc/gcc) with "
        "the Python headers")
    return kernel.ffi, kernel.lib


ffi, lib = load()

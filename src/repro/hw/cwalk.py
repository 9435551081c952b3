"""Build-once loader of the compiled cache-walk kernel.

``_walk.c`` holds the cache, TLB and predictor state, the reference
walks and the exact samplers (:mod:`repro.hw.sampling`); ``_walk.h``
declares them and doubles as the cffi ``cdef``.  On
first import the kernel is compiled in cffi API mode into this
package's ``__pycache__``, named by a digest of both files and the
interpreter's ABI tag, so an edit or a different interpreter builds
afresh and a cached import is one ``dlopen``.  The build runs in a
temp directory beside the target and lands with ``os.replace``, so
processes importing at once each see either no file or a whole one.
A process that lands a build removes this interpreter's other builds
(older digests) from the directory; other interpreters' builds stay.
A failed build raises :class:`ImportError`: the hardware model has no
other implementation.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import sys
import tempfile
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_HEADER = _HERE / "_walk.h"
_SOURCE = _HERE / "_walk.c"
CACHE_DIR = _HERE / "__pycache__"
_SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]


def module_name() -> str:
    """Extension name: a digest of the C sources and the interpreter ABI."""
    digest = hashlib.sha256()
    for part in (_HEADER.read_bytes(), _SOURCE.read_bytes(),
                 _SUFFIX.encode(), sys.implementation.cache_tag.encode()):
        digest.update(part)
        digest.update(b"\0")
    return "_repro_walk_" + digest.hexdigest()[:16]


def _build(name: str, target: Path) -> None:
    try:
        import cffi

        builder = cffi.FFI()
        builder.cdef(_HEADER.read_text())
        builder.set_source(name, '#include "_walk.c"',
                           include_dirs=[str(_HERE)],
                           extra_compile_args=["-O2"])
        target.parent.mkdir(parents=True, exist_ok=True)
        scratch = tempfile.mkdtemp(prefix=name + ".", dir=target.parent)
        try:
            # The build tools may print; stdout can be a protocol stream.
            with contextlib.redirect_stdout(sys.stderr):
                built = builder.compile(tmpdir=scratch)
            os.replace(built, target)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    except Exception as error:
        raise ImportError(
            "repro.hw could not build its compiled cache-walk kernel: it "
            "needs the cffi package (with setuptools) and a C compiler "
            f"(cc/gcc) with the Python headers ({error})") from error


def _prune(target: Path) -> None:
    """Remove the stale kernel builds for this interpreter beside
    ``target``.  A process still running one keeps its mapping."""
    for stale in target.parent.glob("_repro_walk_*" + _SUFFIX):
        if stale.name != target.name:
            with contextlib.suppress(OSError):
                stale.unlink()


def load(cache_dir: Path = CACHE_DIR):
    """``(ffi, lib)`` of the kernel, building it into ``cache_dir`` once."""
    name = module_name()
    target = Path(cache_dir) / (name + _SUFFIX)
    if not target.exists():
        _build(name, target)
        _prune(target)
    spec = importlib.util.spec_from_file_location(name, target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ffi, module.lib


ffi, lib = load()

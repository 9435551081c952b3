"""Build-once loading of the program's two compiled kernels.

The cache-walk kernel (:mod:`repro.hw.cwalk`, cffi API mode) and the
event kernel (:mod:`repro.sim.engine`, a CPython extension) are each
compiled on first import into their package's ``__pycache__``, named by
a digest of their C sources, their compiler flags and the interpreter's
ABI tag, so an edit, a flag change or a different interpreter builds
afresh and a cached import is one ``dlopen``.  Both kernels build with
:data:`FLAGS`.  A build runs in a temp directory beside the target and
lands with ``os.replace``, so processes importing at once each see
either no file or a whole one.  A process that lands a build removes
this interpreter's other builds of the same kernel (older digests);
other interpreters' builds stay.  A failed build raises
:class:`ImportError`: neither kernel has another implementation.
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
from typing import Callable, Iterable, Optional

#: This interpreter's extension-module suffix.
SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]
#: Hex digits of the source digest that end a build's name.
_DIGEST_CHARS = 16
#: The compiler flags of both kernels.  Floating-point contraction is
#: off: a target with fused multiply-add could otherwise fuse a kernel's
#: ``a + b * c``, which CPython, whose draws the samplers reproduce bit
#: for bit, never does.
FLAGS = ("-O2", "-ffp-contract=off")


def build_name(prefix: str, sources: Iterable[Path]) -> str:
    """``prefix`` plus a digest of ``sources``, the compiler
    :data:`FLAGS` and the interpreter ABI."""
    digest = hashlib.sha256()
    for part in [Path(source).read_bytes() for source in sources] + [
            flag.encode() for flag in FLAGS] + [
            SUFFIX.encode(), sys.implementation.cache_tag.encode()]:
        digest.update(part)
        digest.update(b"\0")
    return prefix + digest.hexdigest()[:_DIGEST_CHARS]


def load(name: str, build: Callable[[str, Path], str], cache_dir: Path,
         requirement: str, module: Optional[str] = None):
    """The kernel module called ``name`` (a :func:`build_name`),
    building it into ``cache_dir`` once.

    ``build(name, scratch)`` compiles the kernel in the directory
    ``scratch`` and returns the built file; ``requirement`` says what a
    build needs, for the :class:`ImportError` of a failed one.
    ``module`` is the name the kernel is imported under (its init
    function's); it defaults to ``name``.
    """
    target = Path(cache_dir) / (name + SUFFIX)
    if not target.exists():
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            scratch = tempfile.mkdtemp(prefix=name + ".", dir=target.parent)
            try:
                # The build tools may print; stdout can be a protocol
                # stream.
                with contextlib.redirect_stdout(sys.stderr):
                    built = build(name, Path(scratch))
                os.replace(built, target)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
        except Exception as error:
            raise ImportError(f"{requirement} ({error})") from error
        _prune(target)
    spec = importlib.util.spec_from_file_location(module or name, target)
    kernel = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernel)
    return kernel


def _prune(target: Path) -> None:
    """Remove the stale builds of ``target``'s kernel for this
    interpreter beside it.  A process still running one keeps its
    mapping."""
    prefix = target.name[:-len(SUFFIX)][:-_DIGEST_CHARS]
    for stale in target.parent.glob(prefix + "*" + SUFFIX):
        if stale.name != target.name:
            with contextlib.suppress(OSError):
                stale.unlink()

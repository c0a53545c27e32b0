"""Finding the process's libcrypto, for the modules that call into it.

``_hashlib`` has already mapped the system libcrypto into every Python
process, so :mod:`repro.gc.cipher` (AES through ``EVP``) and
:mod:`repro.gc.ot` (modular exponentiation through ``BN``) reach it with
:mod:`ctypes` instead of adding a dependency.  Where to look is written
once, here; *what* to bind is each user's own business, so each gets its
own ``CDLL`` handle and declares only the prototypes it calls.
:class:`Owned` ties what they allocate there to a Python lifetime.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import functools
from typing import Callable, Iterator, Optional

#: Sonames tried when ``_hashlib`` does not lead to a libcrypto.
_SONAMES = (
    "libcrypto.so.3",
    "libcrypto.so.1.1",
    "libcrypto.3.dylib",
    "libcrypto.dylib",
)


def _candidates() -> Iterator[str]:
    """Names to ``dlopen``, cheapest first.

    ``_hashlib``'s own shared object comes first: its dependency — the
    libcrypto ``hashlib`` already mapped — answers the symbol lookups,
    so nothing new is loaded.  ``ctypes.util.find_library`` comes last
    (and only if reached) because it forks ``ldconfig``.
    """
    try:
        import _hashlib

        hashlib_so = _hashlib.__file__
    except (ImportError, AttributeError):  # static or OpenSSL-less build
        pass
    else:
        yield hashlib_so
    yield from _SONAMES
    found = ctypes.util.find_library("crypto")
    if found:
        yield found


@functools.lru_cache(maxsize=None)
def load(bind: Callable[[ctypes.CDLL], None]) -> Optional[ctypes.CDLL]:
    """The first candidate that loads and that ``bind`` accepts, or None.

    ``bind`` declares the prototypes its module calls and may probe them;
    a missing symbol (``AttributeError``) or a refused probe
    (``RuntimeError``) moves on to the next candidate.  The answer is
    cached per ``bind``: each user looks once per process.
    """
    for name in _candidates():
        try:
            lib = ctypes.CDLL(name)
            bind(lib)
        except (OSError, AttributeError, RuntimeError):
            continue
        return lib
    return None


class Owned:
    """One libcrypto allocation, freed with its last Python reference.

    ``free`` is kept on the object because module globals may already be
    gone when ``__del__`` runs at interpreter exit.
    """

    def __init__(self, ptr: Optional[int], free: Callable[[int], None]) -> None:
        self.ptr, self._free = ptr, free
        if not ptr:
            raise MemoryError("libcrypto allocation failed")

    def __del__(self) -> None:
        if self.ptr:
            self._free(self.ptr)
            self.ptr = None

"""Disk cache for reduced Groebner bases.

Entries are plain-text polynomial lists keyed by a content hash of
(ring, generators, order), so stale entries cannot be served.  The caps
are not part of the key: the reduced basis is canonical, and the caps only
decide whether it can be computed.
Writes go through a temporary file and an atomic replace.
"""

import hashlib
import os
import tempfile

from . import poly

ENV_VAR = "TVBCOX_CACHE_DIR"
DEFAULT_DIRNAME = ".tvbcox_cache"


class GBCache:
    def __init__(self, directory=None):
        if directory is None:
            directory = os.environ.get(ENV_VAR) or DEFAULT_DIRNAME
        self.directory = directory

    def _key(self, ring, gens, order):
        h = hashlib.sha256()
        h.update(",".join(ring.names).encode())
        h.update(b"\n")
        for text in sorted(poly.poly_to_text(g, order) for g in gens):
            h.update(text.encode())
            h.update(b"\n")
        h.update(order.signature().encode())
        return h.hexdigest()

    def _path(self, key):
        return os.path.join(self.directory, f"gb-{key}.txt")

    def load(self, ring, gens, order):
        path = self._path(self._key(ring, gens, order))
        if not os.path.exists(path):
            return None
        with open(path, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip()]
        if not lines or lines[0] != ",".join(ring.names):
            return None
        try:
            return [poly.poly_from_text(ring, line) for line in lines[1:]]
        except ValueError:
            return None

    def store(self, ring, gens, order, basis):
        os.makedirs(self.directory, exist_ok=True)
        path = self._path(self._key(ring, gens, order))
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(",".join(ring.names) + "\n")
                for g in basis:
                    fh.write(poly.poly_to_text(g, order) + "\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

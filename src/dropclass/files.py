"""The package's file boundary, the only module that opens files: an
atomic writer, a bounds-checked binary reader, a UTF-8 text opener and a
reader of a text file in blocks of whole lines."""

import contextlib
import math
import os
import struct

import numpy as np

from .errors import FormatError


@contextlib.contextmanager
def atomic_open(path, mode="w"):
    """Write ``<path>.tmp`` (``mode`` "w" for UTF-8 text or "wb") and rename
    it over ``path`` on success.  If an exception escapes, the temporary file
    is deleted and ``path`` keeps what it held.  There is no fsync: this
    survives an interrupted process, not a power loss."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _not_utf8(path, exc):
    return FormatError(f"{path} is not valid UTF-8: {exc.reason}")


@contextlib.contextmanager
def open_text(path):
    """Open a UTF-8 text input; a byte that does not decode raises FormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def line_blocks(path, size):
    """Yield ``(raw, text)`` for consecutive blocks of about ``size`` bytes of
    a UTF-8 text input: the bytes and their decoding.  Each block but the
    last ends just after a ``\\n``, so no line and no character is split,
    and memory stays bounded by the longest line.  A byte that does not
    decode raises FormatError, as in :func:`open_text`."""
    with open(path, "rb") as fh:
        pending = []  # the bytes read since the last newline
        while chunk := fh.read(size):
            cut = chunk.rfind(b"\n") + 1
            if cut:
                block = b"".join(pending) + chunk[:cut]
                pending = [chunk[cut:]]
                yield block, _decode(block, path)
            else:
                pending.append(chunk)
        if rest := b"".join(pending):
            yield rest, _decode(rest, path)


def _decode(raw, path):
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


class ByteReader:
    """Bounds-checked cursor over a binary file's bytes; its errors carry the
    byte offset, and ``noun`` names the payload when it is truncated."""

    def __init__(self, path, noun):
        self.data = read_bytes(path)
        self.off = 0
        self.noun = noun

    def _advance(self, n, what):
        """Move past the next ``n`` bytes; returns the offset they start at."""
        start, end = self.off, self.off + n
        if end > len(self.data):
            raise FormatError(f"truncated {self.noun} while reading {what}", offset=start)
        self.off = end
        return start

    def take(self, n, what):
        start = self._advance(n, what)
        return self.data[start:self.off]

    def unpack(self, fmt, what):
        return struct.unpack_from(fmt, self.data, self._advance(struct.calcsize(fmt), what))

    def skip(self, n, what):
        """Move past the next ``n`` bytes; returns the offset they start at."""
        return self._advance(n, what)

    def floats(self, shape, what):
        """A copy of the next little-endian float32 array of ``shape``."""
        n = math.prod(shape)
        start = self._advance(4 * n, what)
        return np.frombuffer(self.data, dtype="<f4", count=n, offset=start).reshape(shape).copy()

    def expect_end(self, after):
        if self.off != len(self.data):
            raise FormatError(f"trailing bytes after {after}", offset=self.off)

"""The package's file boundary, the only module that opens files: an
atomic writer, a bounds-checked binary reader through one reused window, a
UTF-8 text opener and a reader of a text file in blocks of whole lines."""

import contextlib
import math
import os
import struct

import numpy as np

from .errors import FormatError


@contextlib.contextmanager
def atomic_open(path, mode="w"):
    """Write ``<path>.tmp`` (``mode`` "w" for UTF-8 text or "wb") and rename
    it over ``path`` on success, creating the parent directory (and its
    parents) first if it is missing, so an output directory exists once
    its first file is written.  If an exception escapes, the temporary file
    is deleted and ``path`` keeps what it held.  There is no fsync: this
    survives an interrupted process, not a power loss."""
    if parent := os.path.dirname(path):
        os.makedirs(parent, exist_ok=True)
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


# Bytes that ByteReader reads from its file at a time.
READ_BLOCK = 1 << 20


class ByteReader:
    """Bounds-checked cursor over a binary file, read through one window of
    at most READ_BLOCK bytes that every refill reuses (it grows only for a
    single request larger than that); use it as a context manager, which
    closes the file.  Its errors carry the byte offset, and ``noun``
    names the payload when it is truncated.  Every length is checked against
    the file size before anything is read or allocated.  What the reader
    returns is copied out of the window, except by :meth:`window`."""

    def __init__(self, path, noun):
        self._fh = open(path, "rb")
        try:
            self.size = os.fstat(self._fh.fileno()).st_size
            # the window holds the file's bytes [_base, _stop) as _buf[:_stop - _base]
            self._buf = memoryview(bytearray(min(READ_BLOCK, self.size)))
        except BaseException:
            self._fh.close()
            raise
        self.noun = noun
        self.off = 0
        self._base = self._stop = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def window(self, off, n, what):
        """For a caller that parses the window in place: move to byte ``off``
        (which lies in the window) and return ``(buf, base, stop)``.  The
        window holds the file's bytes [base, stop) as ``buf[:stop - base]``,
        among them the ``n`` bytes at ``off``: it is refilled first if it
        does not.  A refill rewrites ``buf``, so keep no view of it."""
        self.off = off
        if off + n > self._stop:
            self._refill(n, what)
        return self._buf, self._base, self._stop

    def _refill(self, n, what):
        """Move the unread bytes to the front of the window and read after
        them, so that the window starts at ``off`` and holds ``n`` bytes."""
        start = self.off
        if start + n > self.size:
            raise FormatError(f"truncated {self.noun} while reading {what}", offset=start)
        buf = self._buf
        kept = self._stop - start
        unread = buf[start - self._base:self._stop - self._base]
        want = min(max(n, len(buf)), self.size - start)
        if want > len(buf):  # one request larger than the window
            buf = memoryview(bytearray(want))
        buf[:kept] = unread
        got = kept + self._fh.readinto(buf[kept:want])
        if got < want:  # the file shrank after it was opened
            raise FormatError(f"truncated {self.noun} while reading {what}", offset=start + got)
        self._buf, self._base, self._stop = buf, start, start + got

    def _next(self, n, what):
        """The window index of the next ``n`` bytes; moves past them."""
        start = self.off
        _, base, _ = self.window(start, n, what)
        self.off = start + n
        return start - base

    def take(self, n, what):
        at = self._next(n, what)
        return bytes(self._buf[at:at + n])

    def unpack(self, fmt, what):
        at = self._next(struct.calcsize(fmt), what)
        return struct.unpack_from(fmt, self._buf, at)

    def floats(self, shape, what):
        """A copy of the next little-endian float32 array of ``shape``."""
        n = math.prod(shape)
        at = self._next(4 * n, what)
        return np.frombuffer(self._buf, dtype="<f4", count=n, offset=at).reshape(shape).copy()

    def expect_end(self, after):
        if self.off != self.size:
            raise FormatError(f"trailing bytes after {after}", offset=self.off)

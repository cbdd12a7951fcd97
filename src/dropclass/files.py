"""The package's file boundary, the only module that opens files: an
atomic writer, a bounds-checked binary reader with a bounded window, a
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


# Bytes that ByteReader reads from its file at a time.
READ_BLOCK = 1 << 20


class ByteReader:
    """Bounds-checked cursor over a binary file, read through a window of
    about READ_BLOCK bytes; use it as a context manager, which closes the
    file.  Its errors carry the byte offset, and ``noun`` names the payload
    when it is truncated.  Every length is checked against the file size
    before anything is read or allocated."""

    def __init__(self, path, noun):
        self._fh = open(path, "rb")
        try:
            self.size = os.fstat(self._fh.fileno()).st_size
        except BaseException:
            self._fh.close()
            raise
        self.noun = noun
        self.off = 0
        # the window holds the file's bytes [_base, _stop)
        self._window = b""
        self._base = self._stop = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def _next(self, n, what):
        """``(window, start)``: the next ``n`` bytes are ``window[start:start + n]``.
        Moves past them."""
        start = self.off
        end = start + n
        if end <= self._stop:
            self.off = end
            return self._window, start - self._base
        if end > self.size:
            raise FormatError(f"truncated {self.noun} while reading {what}", offset=start)
        # A new buffer, not the old one refilled: views of the old one that
        # were handed out keep their bytes.
        window = bytearray(min(max(n, READ_BLOCK), self.size - start))
        kept = self._stop - start
        window[:kept] = memoryview(self._window)[start - self._base:]
        got = kept + self._fh.readinto(memoryview(window)[kept:])
        if got < len(window):  # the file shrank after it was opened
            raise FormatError(f"truncated {self.noun} while reading {what}", offset=start + got)
        self._window, self._base, self._stop, self.off = window, start, start + got, end
        return window, 0

    # take and unpack repeat _next's in-window case inline: the call it
    # saves is most of the cost of reading a small field.

    def take(self, n, what):
        start = self.off
        if start + n <= self._stop:
            self.off = start + n
            at = start - self._base
            return self._window[at:at + n]
        window, at = self._next(n, what)
        return window[at:at + n]

    def unpack(self, fmt, what):
        start = self.off
        n = struct.calcsize(fmt)
        if start + n <= self._stop:
            self.off = start + n
            return struct.unpack_from(fmt, self._window, start - self._base)
        return struct.unpack_from(fmt, *self._next(n, what))

    def view(self, n, what):
        """A view of the next ``n`` bytes; it stays valid after the reader
        moves on or is closed."""
        window, at = self._next(n, what)
        return memoryview(window)[at:at + n]

    def floats(self, shape, what):
        """A copy of the next little-endian float32 array of ``shape``."""
        n = math.prod(shape)
        window, at = self._next(4 * n, what)
        return np.frombuffer(window, dtype="<f4", count=n, offset=at).reshape(shape).copy()

    def expect_end(self, after):
        if self.off != self.size:
            raise FormatError(f"trailing bytes after {after}", offset=self.off)

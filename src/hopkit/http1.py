"""The endpoint client's side of HTTP/1.1 (RFC 9112): request heads, and
replies read off a socket.  Only ``gateway.OpenAIChatBackend`` imports it,
when it is built, so runs that never reach an endpoint do not compile it.
"""

from __future__ import annotations

import re

MAX_LINE, MAX_FIELDS = 65536, 100  # a reply head's longest line and most fields


class Connection:
    """A socket and the bytes received on it that no reply has used yet."""

    def __init__(self, sock):
        self.sock, self.buffer = sock, bytearray()

    def _receive(self, until_close: bool = False) -> bool:
        """Append the bytes received next; at the server's close, False if
        ``until_close``, else a ValueError."""
        data = self.sock.recv(65536)
        if not data and not until_close:
            raise ValueError("the server closed the connection mid-reply")
        self.buffer += data
        return bool(data)

    def line(self) -> bytes:
        """The next line less its LF or CR LF, which it may hold 64 KiB with."""
        start = 0
        while (end := self.buffer.find(b"\n", start, MAX_LINE)) < 0:
            if len(self.buffer) >= MAX_LINE:
                raise ValueError(f"a reply line is longer than {MAX_LINE} bytes")
            start = len(self.buffer)
            self._receive()
        line = bytes(self.buffer[:end])
        del self.buffer[:end + 1]
        return line.removesuffix(b"\r")

    def read(self, size: int | None) -> bytes:
        """The next ``size`` bytes, or with None every byte until the server
        closes; memory grows only with the bytes received."""
        while (size is None or len(self.buffer) < size) and self._receive(size is None):
            pass
        data = bytes(self.buffer[:size])
        del self.buffer[:size]
        return data


def read_fields(conn: Connection) -> dict[bytes, bytes]:
    """The header (or trailer) fields up to the blank line, at most 100: each
    lower-cased name maps to its values joined by ","."""
    fields = {}
    for _ in range(MAX_FIELDS + 1):
        line = conn.line()
        if not line:
            return fields
        name, _, value = line.partition(b":")
        name, value = name.strip().lower(), value.strip()
        fields[name] = fields[name] + b"," + value if name in fields else value
    raise ValueError(f"a reply has more than {MAX_FIELDS} header lines")


def read_head(conn: Connection) -> tuple[bytes, int, dict[bytes, bytes]]:
    """The HTTP version, status and fields of the next reply that is not 1xx."""
    while True:
        line = conn.line()
        match = re.match(rb"(HTTP/1\.[01]) ([1-9]\d\d)\b", line)
        if match is None:
            raise ValueError(f"not an HTTP/1 status line: {line[:80]!r}")
        fields = read_fields(conn)
        if int(match[2]) >= 200:
            return match[1], int(match[2]), fields


def read_chunked(conn: Connection) -> bytes:
    """A chunked body (RFC 9112 §7.1), less its chunk extensions and trailer."""
    chunks = []
    while True:
        digits = conn.line().partition(b";")[0].strip()
        if not digits or digits.strip(b"0123456789abcdefABCDEF"):
            raise ValueError(f"bad chunk size {digits[:80]!r}")
        if not int(digits, 16):
            read_fields(conn)
            return b"".join(chunks)
        chunks.append(conn.read(int(digits, 16)))
        if conn.line():
            raise ValueError("a chunk is longer than its size")


def read_reply(conn: Connection) -> tuple[int, bytes, bool, bytes | None]:
    """The status and body of the next final reply, whether ``conn`` may
    carry another request, and its Retry-After field, if any.  The body is
    framed as RFC 9112 §6.3 says: a 204 or 304 has none, chunked coding wins
    over Content-Length, and without either the body ends when the server
    closes.  Only an HTTP/1.1 reply framed by exactly one of them, without
    "Connection: close" and with no byte received past its end, leaves
    ``conn`` reusable."""
    version, status, fields = read_head(conn)
    coding, length = fields.get(b"transfer-encoding"), fields.get(b"content-length")
    exact = coding is None or length is None
    if status in (204, 304):
        body = b""
    elif coding is not None:
        if coding.lower() != b"chunked":
            raise ValueError(f"unsupported transfer coding {coding[:80]!r}")
        body = read_chunked(conn)
    elif length is not None:
        sizes = {size.strip() for size in length.split(b",")}
        size = sizes.pop()
        if sizes or not size.isdigit():
            raise ValueError(f"bad Content-Length {length[:80]!r}")
        body = conn.read(int(size))
    else:
        body, exact = conn.read(None), False
    tokens = fields.get(b"connection", b"").lower().split(b",")
    close = b"close" in [token.strip() for token in tokens]
    reusable = exact and version == b"HTTP/1.1" and not close and not conn.buffer
    return status, body, reusable, fields.get(b"retry-after")


def encode_head(request: str, fields: dict[str, str]) -> bytes:
    """The lines of an HTTP/1.1 ``request`` and its ``fields``, ASCII-encoded,
    each ended by CR LF."""
    lines = [f"{request} HTTP/1.1", *(f"{name}: {value}" for name, value in fields.items())]
    return "".join(line + "\r\n" for line in lines).encode("ascii")

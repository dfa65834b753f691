"""The endpoint client: ``OpenAIChatBackend`` and its side of HTTP/1.1
(RFC 9112), request heads and replies read off a socket.  ``gateway``
imports it only when its ``OpenAIChatBackend`` is first looked up, and the
cli only to build an endpoint run, so oracle and dataset runs never compile
it.
"""

from __future__ import annotations

import json
import os
import re
import select
import socket
import threading
from urllib.parse import unquote, urlsplit

from .gateway import TransportError

MAX_LINE, MAX_FIELDS = 65536, 100  # a reply head's longest line and most fields
REQUEST_TIMEOUT_S = 120.0


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


def _split_url(url: str, schemes: tuple[str, ...], what: str):
    """``urlsplit(url)`` and its port; a ValueError naming ``what``, less any
    password, unless ``url`` has one of ``schemes``, a host and a valid port,
    which 0 is not: a connection to it would go to the scheme's default."""
    try:  # urlsplit and .port raise ValueError on a bad bracket or port
        parts = urlsplit(url)
        if parts.scheme in schemes and parts.hostname and parts.port != 0:
            return parts, parts.port
    except ValueError:
        pass
    raise ValueError(f"{what} {_masked(url)!r} is not an "
                     f"{' or '.join(s + '://' for s in schemes)} URL with a host")


def _masked(url: str) -> str:
    """``url`` less everything from "//" to its last "@": a user name and a
    password, whatever characters they hold."""
    scheme, slashes, rest = url.partition("//")
    return scheme + slashes + rest.rpartition("@")[2]


class OpenAIChatBackend:
    """Minimal client for any OpenAI-compatible /chat/completions endpoint.

    It speaks HTTP/1.1 itself over pooled keep-alive sockets, no more open
    than sends in flight (at most the gateway's ``concurrency``); ``close``
    closes the idle ones.  A send is one write: the request head, encoded
    once when the backend is built and asking for identity encoding, then
    the JSON payload.  A reply may have 100 header lines of 64 KiB; 1xx
    replies are skipped; its body is framed by chunked coding, else
    Content-Length, else the server's close, and a 204 has none.  A socket
    is reused only after an HTTP/1.1 reply framed exactly, without
    "Connection: close"; one that raised never is.  No redirects, no
    HTTP/2.  The proxy is read once, from the environment only
    (``<scheme>_proxy``, else ``all_proxy``, in any case, unless
    ``no_proxy`` matches): a plain-HTTP proxy takes the absolute URI, an
    https endpoint is reached through a CONNECT tunnel.  TLS verifies
    against the system's trust store.  Building one refuses what cannot go
    on the wire: a setting of another type (a bool is no number), an empty
    model, a temperature below 0 or not finite, ``max_tokens`` below 1; an
    endpoint that is not a printable ASCII http(s) URL with a host and no
    spaces, or has a user name, a query or a fragment; a bearer token that
    is missing or not printable ASCII; and a proxy in use that is not an
    http:// URL with a host."""

    def __init__(
        self,
        endpoint: str,
        model: str,
        token_env: str = "OPENAI_API_KEY",
        temperature: float = 0.0,
        max_tokens: int = 512,
    ):
        for name, value in (("endpoint", endpoint), ("token_env", token_env)):
            if not isinstance(value, str):
                raise ValueError(f"{name} must be a string, not {value!r}")
        if not isinstance(model, str) or not model:
            raise ValueError(f"an endpoint needs a model, a non-empty string, not {model!r}")
        if (isinstance(temperature, bool) or not isinstance(temperature, (int, float))
                or not 0 <= temperature < float("inf")):  # JSON has no inf or NaN
            raise ValueError(f"temperature must be a finite number >= 0, not {temperature!r}")
        if isinstance(max_tokens, bool) or not isinstance(max_tokens, int) or max_tokens < 1:
            raise ValueError(f"max_tokens must be an integer >= 1, not {max_tokens!r}")
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.temperature = temperature
        self.max_tokens = max_tokens
        url, port = _split_url(self.endpoint, ("http", "https"), "endpoint")
        if url.username is not None:  # a proxy would see it in the request target
            raise ValueError(f"endpoint {_masked(self.endpoint)!r} must not have "
                             "a user name or password")
        if "?" in self.endpoint or "#" in self.endpoint:  # even an empty one
            raise ValueError(f"endpoint {self.endpoint!r} must not have a query or fragment")
        if not (self.endpoint.isascii() and self.endpoint.isprintable()) or " " in self.endpoint:
            raise ValueError(f"endpoint {_masked(self.endpoint)!r} must be printable ASCII "
                             "with no spaces")
        token = os.environ.get(token_env)
        if not token:
            raise ValueError(f"missing bearer token: set the {token_env} environment variable")
        if not (token.isascii() and token.isprintable()):  # it would end the header
            raise ValueError(f"the bearer token in {token_env} must be printable ASCII")
        headers = {"Host": url.netloc, "Accept-Encoding": "identity",
                   "Authorization": f"Bearer {token}", "Content-Type": "application/json"}
        path = url.path + "/chat/completions"
        self.address, self.connect = (url.hostname, port), None
        proxy, names = None, (url.scheme + "_proxy", "all_proxy")
        if any(value and name.lower() in names for name, value in os.environ.items()):
            import urllib.request  # it loads http.client, email and ssl: proxy runs only
            proxies = urllib.request.getproxies()
            proxy = proxies.get(url.scheme) or proxies.get("all")
            if proxy and urllib.request.proxy_bypass(url.hostname):
                proxy = None
        if proxy:
            proxy, proxy_port = _split_url(proxy if "://" in proxy else "http://" + proxy,
                                           ("http",), "proxy")
            auth = {}
            if proxy.username is not None:
                from base64 import b64encode
                user = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
                auth["Proxy-Authorization"] = f"Basic {b64encode(user.encode()).decode()}"
            self.address = (proxy.hostname, proxy_port or 80)
            if url.scheme == "https":
                target = url.netloc if port is not None else url.netloc.rstrip(":") + ":443"
                self.connect = encode_head(f"CONNECT {target}",
                                                 {"Host": target, **auth}) + b"\r\n"
            else:  # a plain-HTTP proxy takes the absolute URI
                path = self.endpoint + "/chat/completions"
                headers.update(auth)
        self.head = encode_head(f"POST {path}", headers) + b"Content-Length: "
        self.context, self.hostname = None, url.hostname
        if url.scheme == "https":  # a plain-HTTP run never loads ssl
            import ssl
            self.context = ssl.create_default_context()
        self.idle, self.lock = [], threading.Lock()  # connections no send holds

    def close(self) -> None:
        """Close every idle connection; a later send opens a new one."""
        with self.lock:
            idle, self.idle = self.idle, []
        for conn in idle:
            conn.sock.close()

    def _connection(self):
        """An idle connection, else a new one.  An idle connection that reads
        as ready holds the server's close (or bytes no request asked for), so
        it is dropped before use, as urllib3 does, and never costs a retry;
        so is one that ``select`` cannot check."""
        with self.lock:
            while self.idle:
                conn = self.idle.pop()
                try:  # a descriptor past select's FD_SETSIZE raises ValueError
                    if not select.select([conn.sock], [], [], 0)[0]:
                        return conn
                except ValueError:
                    pass
                conn.sock.close()
        host, port = self.address
        sock = socket.create_connection(
            (host, port or (80 if self.context is None else 443)), REQUEST_TIMEOUT_S)
        try:
            if self.connect is not None:
                sock.sendall(self.connect)
                status = read_head(Connection(sock))[1]
                if status // 100 != 2:
                    raise OSError(f"the proxy refused the CONNECT tunnel: HTTP {status}")
            if self.context is not None:
                sock = self.context.wrap_socket(sock, server_hostname=self.hostname)
        except BaseException:
            sock.close()
            raise
        return Connection(sock)

    def send(self, prompt: str) -> tuple[str, dict | None]:
        payload = json.dumps({
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
        }).encode("utf-8")
        conn = None
        try:
            conn = self._connection()
            conn.sock.sendall(b"%b%d\r\n\r\n%b" % (self.head, len(payload), payload))
            status, data, reusable, retry_after = read_reply(conn)
        except (OSError, ValueError) as exc:
            if conn is not None:
                conn.sock.close()
            raise TransportError(str(exc)) from exc
        if reusable:
            with self.lock:
                self.idle.append(conn)
        else:
            conn.sock.close()
        if status == 429 or status >= 500:  # a Retry-After date gets the backoff
            wait = retry_after if status in (429, 503) and retry_after else b""
            raise TransportError(f"HTTP {status}",
                                 retry_after=float(wait) if wait.isdigit() else None)
        if status != 200:
            raise TransportError(f"HTTP {status}", retryable=False)
        try:
            body = json.loads(data)
            text = body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
            raise TransportError(f"malformed response: {exc}", retryable=False) from exc
        if not isinstance(text, str):
            raise TransportError(
                f"malformed response: content is {text!r}", retryable=False
            )
        return text, body.get("usage")

"""Run commands as child processes and account for each one exactly.

Wall time runs from spawn until the child is reaped; its stdout and stderr are
drained to EOF meanwhile, so stdout is read in full. CPU time and peak RSS
come from `os.wait4`, whose rusage covers the child and every descendant it
waited for (a `sweep --threads N` pool's workers included).

Linux folds the spawning process's own peak RSS into an exec'd child's
`ru_maxrss`. A client that has held a 44 MB output would therefore read at
least that much for every later child. So children are spawned by a small
helper, forked while the client is still small, that never touches their
output: the client makes the pipes, passes the write ends to the helper over
a socket, and drains the read ends itself.
"""

from __future__ import annotations

import json
import os
import select
import selectors
import signal
import socket
import subprocess
import time
import traceback
from dataclasses import dataclass


@dataclass(frozen=True)
class Completed:
    code: int | None  # None when the command timed out and was killed
    out: bytes
    err: bytes
    wall: float
    cpu: float
    rss_mb: float


class Launcher:
    """A forked helper that spawns, times and reaps one command at a time."""

    def __init__(self, cwd: str, env: dict, timeout: float) -> None:
        self.timeout = timeout
        self._sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        self._pid = os.fork()
        if self._pid == 0:  # the helper
            code = 1
            try:
                self._sock.close()
                _serve(theirs, cwd, env, timeout)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        theirs.close()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self._sock.close()  # the helper sees EOF and exits
        os.waitpid(self._pid, 0)

    def run(self, argv: list[str]) -> Completed:
        r_out, w_out = os.pipe()
        r_err, w_err = os.pipe()
        try:
            socket.send_fds(self._sock, [json.dumps(argv).encode()], [w_out, w_err])
        finally:
            os.close(w_out)
            os.close(w_err)
        out, err = _drain(r_out, r_err, deadline=time.monotonic() + self.timeout + 30)
        reply = json.loads(self._sock.recv(1 << 12))
        return Completed(out=out, err=err, **reply)


def _drain(*fds: int, deadline: float) -> list[bytes]:
    chunks: dict[int, list[bytes]] = {fd: [] for fd in fds}
    try:
        with selectors.DefaultSelector() as sel:
            for fd in fds:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                left = deadline - time.monotonic()
                if left <= 0:
                    raise TimeoutError("command output still open after its timeout")
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 20)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
    finally:
        for fd in fds:
            os.close(fd)
    return [b"".join(chunks[fd]) for fd in fds]


def _serve(sock: socket.socket, cwd: str, env: dict, timeout: float) -> None:
    while True:
        msg, fds, _, _ = socket.recv_fds(sock, 1 << 16, 2)
        if not msg:
            return
        t0 = time.perf_counter()
        try:
            proc = subprocess.Popen(
                json.loads(msg), cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                stdout=fds[0], stderr=fds[1], start_new_session=True,
            )
        finally:
            for fd in fds:
                os.close(fd)
        pidfd = os.pidfd_open(proc.pid)
        try:
            finished, _, _ = select.select([pidfd], [], [], timeout)
        finally:
            os.close(pidfd)
        if not finished:
            os.killpg(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        sock.send(json.dumps({
            "code": proc.returncode if finished else None,
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
        }).encode())

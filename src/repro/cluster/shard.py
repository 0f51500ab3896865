"""Shard transports: one serving worker behind a uniform async API.

A *shard* is one full serving stack -- a :class:`~repro.engine.engine.SolveEngine`
plus a :class:`~repro.service.server.QueryServer` core -- owned by the
cluster router.  Two transports implement the same coroutine API, so the
router, the load generator, and the tests are transport-agnostic:

* :class:`InprocShard` -- the server runs on the router's own event loop.
  Zero serialization (results come back as live objects), which is what the
  bitwise-parity tests and the 1-CPU CI box want.
* :class:`ProcessShard` -- the server runs in a separate **worker process**
  (its own interpreter, engine, cache, and metrics registry).  Requests and
  responses travel as wire dicts over a pair of one-directional pipes; the
  worker answers concurrently (each request becomes a task on its loop), so
  coalescing and micro-batching work exactly as in-process.  Results are
  rebuilt with :meth:`SynthesisResult.from_dict`, whose JSON float
  round-trip is exact -- sharded answers stay bitwise-identical to a
  single-server run.

Every shard method that performs work returns the same payload shape::

    {"result": SynthesisResult, "fingerprint": str, "cache_hit": bool,
     "coalesced": bool, "latency": float, "batch_size": int,
     "served": str | None}
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import threading
from dataclasses import asdict

from repro.chaos import ChaosError
from repro.core.problem import RankingProblem
from repro.core.result import SynthesisResult
from repro.service.errors import DeadlineExceededError
from repro.service.server import QueryServer, QueryServerOptions, ServiceStats

__all__ = ["InprocShard", "ProcessShard", "ShardDeadError", "ShardError"]


class ShardError(RuntimeError):
    """A worker-side failure that does not map onto a builtin error type."""


class ShardDeadError(ShardError):
    """The shard's worker is gone (process exit, pipe EOF, injected crash).

    Raised parent-side only -- it is the transport's death signal, and the
    one ``ShardError`` subtype the router treats as "mark the shard dead
    and start the restart/failover machinery" (a worker-side application
    error rebuilt as a plain :class:`ShardError` must *not* kill a healthy
    shard).  Marked ``retryable``: a client that sees it raced the crash,
    and the supervised restart makes reissuing worthwhile (the request
    either never reached the worker or died with it -- nothing committed).
    """

    retryable = True


async def _apply_pipe_fault(shard) -> None:
    """Consume one armed chaos pipe fault for this shard, if any.

    ``delay_pipe`` sleeps the injected latency before the call proceeds;
    ``drop_message`` raises a retryable :class:`~repro.chaos.ChaosError`
    without sending anything (the transport-loss stand-in: the shard never
    saw the request, so reissuing it is safe).  Only the data paths
    (``submit`` / ``submit_session``) consult this -- health probes and
    stats must not eat faults armed for real traffic.
    """
    chaos = shard.chaos
    if chaos is None:
        return
    fault = chaos.take_pipe_fault(shard.index)
    if fault is None:
        return
    if fault.kind == "delay_pipe":
        await asyncio.sleep(fault.seconds)
    else:  # drop_message
        raise ChaosError(f"message to shard {shard.index} dropped (injected)")


def _query_response_payload(response) -> dict:
    """Uniform shard payload from a :class:`QueryResponse` (live objects)."""
    return {
        "result": response.result,
        "fingerprint": response.outcome.fingerprint,
        "cache_hit": response.cache_hit,
        "coalesced": response.coalesced,
        "latency": response.latency,
        "batch_size": response.batch_size,
        "served": response.outcome.served,
    }


class InprocShard:
    """A shard sharing the router's process and event loop.

    Supports *simulated* crashes (:meth:`inject_kill`): the shard flips a
    dead flag and every subsequent call raises :class:`ShardDeadError`,
    which exercises the router's detection/restart/failover machinery
    deterministically on a single event loop -- the 1-CPU CI analogue of a
    worker process dying.  Work already in flight completes (the simulation
    is not preemptive); the state loss is real, because a restart builds a
    brand-new server.
    """

    transport = "inproc"

    def __init__(self, index: int, options: QueryServerOptions) -> None:
        self.index = index
        self.server = QueryServer(options=options)
        #: Optional :class:`~repro.chaos.ChaosInjector` (set by the router).
        self.chaos = None
        self._crashed = False

    def _check_alive(self) -> None:
        if self._crashed:
            raise ShardDeadError(f"shard {self.index} crashed (injected)")

    def inject_kill(self) -> None:
        """Simulate a crash: all state is as good as lost (see class doc)."""
        self._crashed = True

    async def start(self) -> None:
        await self.server.start()

    async def stop(self) -> None:
        await self.server.stop()

    async def abort(self) -> None:
        """Tear down without drain semantics (supervisor path, post-crash).

        The replaced server is stopped so its engine/executor release and
        in-flight waiters resolve; its sessions and memory cache die with
        it, exactly like a killed process.
        """
        try:
            await asyncio.wait_for(self.server.stop(), timeout=30)
        except Exception:  # pragma: no cover - defensive teardown
            pass

    async def drain(self) -> None:
        self._check_alive()
        await self.server.drain()

    async def submit(
        self,
        problem,
        method: str,
        params: dict | None,
        request_id: str | None = None,
        deadline: float | None = None,
    ) -> dict:
        self._check_alive()
        await _apply_pipe_fault(self)
        response = await self.server.submit(
            problem, method, params, request_id=request_id, deadline=deadline
        )
        self._check_alive()
        return _query_response_payload(response)

    async def open_session(
        self,
        problem,
        method: str,
        params: dict | None,
        session_id: str,
    ) -> str:
        self._check_alive()
        return await self.server.open_session(
            problem, method, params, session_id=session_id
        )

    async def submit_session(
        self,
        session_id: str,
        deltas=None,
        method: str | None = None,
        params: dict | None = None,
        request_id: str | None = None,
        deadline: float | None = None,
    ) -> dict:
        self._check_alive()
        await _apply_pipe_fault(self)
        response = await self.server.submit_session(
            session_id, deltas=deltas, method=method, params=params,
            request_id=request_id, deadline=deadline,
        )
        self._check_alive()
        return _query_response_payload(response)

    async def export_session(self, session_id: str) -> dict:
        self._check_alive()
        return self.server.export_session(session_id)

    async def resume_session(self, data: dict, session_id: str) -> str:
        self._check_alive()
        return await self.server.resume_session(data, session_id=session_id)

    async def close_session(self, session_id: str) -> None:
        self._check_alive()
        self.server.close_session(session_id)

    async def session_info(self, session_id: str) -> dict:
        self._check_alive()
        return self.server.session_info(session_id)

    async def stats(self) -> ServiceStats:
        return self.server.stats()

    async def export_metrics_prometheus(self) -> str:
        return self.server.export_metrics_prometheus()

    async def health(self) -> dict:
        self._check_alive()
        stats = self.server.stats()
        return {
            "pid": os.getpid(),
            "transport": self.transport,
            "requests": stats.requests,
            "sessions_open": stats.sessions_open,
        }


# -- worker-process transport --------------------------------------------------


def _error_payload(error: BaseException) -> dict:
    return {"type": type(error).__name__, "message": str(error)}


_REBUILDABLE_ERRORS = {
    "ValueError": ValueError,
    "KeyError": KeyError,
    "RuntimeError": RuntimeError,
    "TypeError": TypeError,
    # Typed pass-through for the fault-tolerance layer: a deadline shed or
    # an injected chaos fault inside the worker must reach the caller as
    # itself (both are retryable by contract), not as an opaque ShardError.
    "DeadlineExceededError": DeadlineExceededError,
    "ChaosError": ChaosError,
}


def _rebuild_error(payload: dict) -> BaseException:
    kind = _REBUILDABLE_ERRORS.get(payload.get("type", ""))
    message = payload.get("message", "shard worker error")
    if kind is not None:
        return kind(message)
    return ShardError(f"{payload.get('type', 'Error')}: {message}")


async def _worker_handle(server: QueryServer, op: str, payload: dict) -> dict:
    """Dispatch one request inside the worker; returns the wire reply."""
    if op == "submit":
        response = await server.submit(
            RankingProblem.from_dict(payload["problem"]),
            payload["method"],
            payload.get("params"),
            request_id=payload.get("request_id"),
            deadline=payload.get("deadline"),
        )
        reply = response.to_dict()
        reply["served"] = response.outcome.served
        return reply
    if op == "open_session":
        session_id = await server.open_session(
            RankingProblem.from_dict(payload["problem"]),
            payload["method"],
            payload.get("params"),
            session_id=payload["session_id"],
        )
        return {"session_id": session_id}
    if op == "submit_session":
        response = await server.submit_session(
            payload["session_id"],
            deltas=payload.get("deltas"),
            method=payload.get("method"),
            params=payload.get("params"),
            request_id=payload.get("request_id"),
            deadline=payload.get("deadline"),
        )
        reply = response.to_dict()
        reply["served"] = response.outcome.served
        return reply
    if op == "export_session":
        return server.export_session(payload["session_id"])
    if op == "resume_session":
        session_id = await server.resume_session(
            payload["data"], session_id=payload["session_id"]
        )
        return {"session_id": session_id}
    if op == "close_session":
        server.close_session(payload["session_id"])
        return {}
    if op == "session_info":
        return server.session_info(payload["session_id"])
    if op == "stats":
        return asdict(server.stats())
    if op == "metrics_prom":
        return {"text": server.export_metrics_prometheus()}
    if op == "drain":
        await server.drain()
        return {}
    if op == "health":
        stats = server.stats()
        return {
            "pid": os.getpid(),
            "transport": "process",
            "requests": stats.requests,
            "sessions_open": stats.sessions_open,
        }
    raise ValueError(f"unknown shard op {op!r}")


async def _worker_serve(request_recv, response_send, options_wire: dict) -> None:
    server = QueryServer(options=QueryServerOptions(**options_wire))
    await server.start()
    loop = asyncio.get_running_loop()
    tasks: set[asyncio.Task] = set()

    async def handle(req_id, op, payload):
        try:
            reply = await _worker_handle(server, op, payload)
        except BaseException as error:  # every failure answers; never drop
            response_send.send((req_id, "error", _error_payload(error)))
            return
        response_send.send((req_id, "ok", reply))

    try:
        while True:
            try:
                # Blocking pipe read off-loop so in-flight solves keep going.
                message = await loop.run_in_executor(None, request_recv.recv)
            except (EOFError, OSError):
                break
            req_id, op, payload = message
            if op == "stop":
                if tasks:
                    await asyncio.gather(*tasks, return_exceptions=True)
                await server.stop()
                response_send.send((req_id, "ok", {}))
                break
            task = loop.create_task(handle(req_id, op, payload))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
    finally:
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        if server._loop_task is not None:  # stop not reached (EOF path)
            await server.stop()


def _shard_worker_main(request_recv, response_send, options_wire: dict) -> None:
    """Entry point of one worker process (must be importable for spawn)."""
    try:
        asyncio.run(_worker_serve(request_recv, response_send, options_wire))
    finally:
        try:
            response_send.close()
        except OSError:
            pass
        try:
            request_recv.close()
        except OSError:
            pass


class ProcessShard:
    """A shard backed by a separate worker process.

    The parent keeps two one-directional pipes per worker (requests out,
    responses in) so the event-loop sender and the background reader thread
    never share a connection end.  Responses resolve parent-side futures via
    ``call_soon_threadsafe``; a worker that dies mid-request fails every
    pending future loudly instead of hanging its callers.

    Args:
        index: Shard index (used in ids and error messages).
        options: The worker's :class:`QueryServerOptions` (must be
            pickleable -- it is re-built inside the worker).
        mp_method: ``multiprocessing`` start method.  Defaults to ``spawn``:
            the parent runs an event loop and reader threads, which fork
            could copy in a locked state.
    """

    transport = "process"

    def __init__(
        self,
        index: int,
        options: QueryServerOptions,
        mp_method: str = "spawn",
    ) -> None:
        self.index = index
        self.options = options
        self._mp_method = mp_method
        self._process = None
        self._req_send = None
        self._resp_recv = None
        self._reader: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._request_counter = 0
        self._closed = False
        # Set by the reader thread the moment it observes worker EOF --
        # BEFORE it schedules _fail_pending -- so a _call racing the death
        # notification either fails fast here or registers its future in
        # time for _fail_pending to sweep it.  Without the flag, a call
        # issued after the sweep registered a future nobody would ever fail.
        self._worker_dead = False
        #: Optional :class:`~repro.chaos.ChaosInjector` (set by the router).
        self.chaos = None

    async def start(self) -> None:
        ctx = multiprocessing.get_context(self._mp_method)
        req_recv, req_send = ctx.Pipe(duplex=False)
        resp_recv, resp_send = ctx.Pipe(duplex=False)
        self._process = ctx.Process(
            target=_shard_worker_main,
            args=(req_recv, resp_send, asdict(self.options)),
            name=f"repro-shard-{self.index}",
            daemon=True,
        )
        self._process.start()
        # The child inherited duplicates of these ends; close the parent's.
        req_recv.close()
        resp_send.close()
        self._req_send = req_send
        self._resp_recv = resp_recv
        self._loop = asyncio.get_running_loop()
        self._reader = threading.Thread(
            target=self._read_responses,
            name=f"repro-shard-{self.index}-reader",
            daemon=True,
        )
        self._reader.start()
        # Handshake: the first reply proves the worker imported and serves.
        await self._call("health", {})

    def _read_responses(self) -> None:
        while True:
            try:
                message = self._resp_recv.recv()
            except (EOFError, OSError):
                break
            try:
                self._loop.call_soon_threadsafe(self._resolve, *message)
            except RuntimeError:  # loop already closed during teardown
                break
        # Order matters: flip the flag first (plain attribute write, visible
        # to the event-loop thread under the GIL), then sweep.  See the
        # comment on _worker_dead in __init__.
        self._worker_dead = True
        try:
            self._loop.call_soon_threadsafe(
                self._fail_pending,
                ShardDeadError(f"shard {self.index} worker exited"),
            )
        except RuntimeError:
            pass

    def _resolve(self, req_id: int, status: str, payload) -> None:
        future = self._pending.pop(req_id, None)
        if future is None or future.done():
            return
        if status == "ok":
            future.set_result(payload)
        else:
            future.set_exception(_rebuild_error(payload))

    def _fail_pending(self, error: BaseException) -> None:
        while self._pending:
            _, future = self._pending.popitem()
            if not future.done():
                future.set_exception(error)

    async def _call(self, op: str, payload: dict):
        if self._closed or self._req_send is None:
            raise ShardDeadError(f"shard {self.index} is not running")
        if self._worker_dead:
            # The reader already observed EOF: registering a future now
            # would leave it pending forever (the failure sweep has run or
            # is scheduled against the *current* pending map).  Fail fast.
            raise ShardDeadError(f"shard {self.index} worker exited")
        self._request_counter += 1
        req_id = self._request_counter
        future = self._loop.create_future()
        self._pending[req_id] = future
        try:
            self._req_send.send((req_id, op, payload))
        except (OSError, ValueError) as error:
            self._pending.pop(req_id, None)
            raise ShardDeadError(
                f"shard {self.index} pipe is down: {error}"
            ) from error
        return await future

    # -- the shard API over the wire ------------------------------------------

    @staticmethod
    def _wire_response(reply: dict) -> dict:
        return {
            "result": SynthesisResult.from_dict(reply["result"]),
            "fingerprint": reply["fingerprint"],
            "cache_hit": reply["cache_hit"],
            "coalesced": reply["coalesced"],
            "latency": reply["latency"],
            "batch_size": reply["batch_size"],
            "served": reply.get("served"),
        }

    async def submit(
        self,
        problem,
        method: str,
        params: dict | None,
        request_id: str | None = None,
        deadline: float | None = None,
    ) -> dict:
        await _apply_pipe_fault(self)
        reply = await self._call(
            "submit",
            {
                "problem": problem.to_dict(),
                "method": method,
                "params": params,
                "request_id": request_id,
                "deadline": deadline,
            },
        )
        return self._wire_response(reply)

    async def open_session(
        self,
        problem,
        method: str,
        params: dict | None,
        session_id: str,
    ) -> str:
        reply = await self._call(
            "open_session",
            {
                "problem": problem.to_dict(),
                "method": method,
                "params": params,
                "session_id": session_id,
            },
        )
        return reply["session_id"]

    async def submit_session(
        self,
        session_id: str,
        deltas=None,
        method: str | None = None,
        params: dict | None = None,
        request_id: str | None = None,
        deadline: float | None = None,
    ) -> dict:
        wire_deltas = None
        if deltas is not None:
            wire_deltas = [
                delta if isinstance(delta, dict) else delta.to_dict()
                for delta in deltas
            ]
        await _apply_pipe_fault(self)
        reply = await self._call(
            "submit_session",
            {
                "session_id": session_id,
                "deltas": wire_deltas,
                "method": method,
                "params": params,
                "request_id": request_id,
                "deadline": deadline,
            },
        )
        return self._wire_response(reply)

    async def export_session(self, session_id: str) -> dict:
        return await self._call("export_session", {"session_id": session_id})

    async def resume_session(self, data: dict, session_id: str) -> str:
        reply = await self._call(
            "resume_session", {"data": data, "session_id": session_id}
        )
        return reply["session_id"]

    async def close_session(self, session_id: str) -> None:
        await self._call("close_session", {"session_id": session_id})

    async def session_info(self, session_id: str) -> dict:
        return await self._call("session_info", {"session_id": session_id})

    async def stats(self) -> ServiceStats:
        return ServiceStats(**await self._call("stats", {}))

    async def export_metrics_prometheus(self) -> str:
        reply = await self._call("metrics_prom", {})
        return reply["text"]

    async def health(self) -> dict:
        return await self._call("health", {})

    async def drain(self) -> None:
        await self._call("drain", {})

    def inject_kill(self) -> None:
        """Kill the worker process outright (chaos hook; SIGKILL, no drain).

        Death propagates exactly like a real crash: the response pipe hits
        EOF, the reader thread flips ``_worker_dead`` and sweeps pending
        futures with :class:`ShardDeadError`.
        """
        process = self._process
        if process is not None and process.is_alive():
            process.kill()

    async def abort(self) -> None:
        """Hard teardown without the stop handshake (supervisor path).

        For a worker that is already dead -- or must be treated as dead --
        there is nothing to drain: kill the process if it still breathes,
        close both pipe ends, reap it, and fail anything still pending.
        Idempotent, and safe to race :meth:`stop`.
        """
        if self._closed:
            return
        self._closed = True
        process = self._process
        if process is not None and process.is_alive():
            process.kill()
        if self._req_send is not None:
            self._req_send.close()
        if process is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: process.join(timeout=10)
            )
        if self._resp_recv is not None:
            self._resp_recv.close()
        self._fail_pending(ShardDeadError(f"shard {self.index} aborted"))

    async def stop(self) -> None:
        if self._closed:
            return
        try:
            await asyncio.wait_for(self._call("stop", {}), timeout=30)
        except (ShardError, asyncio.TimeoutError):
            pass
        self._closed = True
        if self._req_send is not None:
            self._req_send.close()
        process = self._process
        if process is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: process.join(timeout=10)
            )
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=5)
        if self._resp_recv is not None:
            self._resp_recv.close()

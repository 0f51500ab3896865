"""The cluster's shard: one serving core on the router's event loop.

A *shard* is one full serving stack -- a :class:`~repro.engine.engine.SolveEngine`
plus a :class:`~repro.service.server.QueryServer` core -- owned by the
cluster router.  :class:`InprocShard` runs the server on the router's own
event loop with zero serialization (results come back as live objects),
which is what the bitwise-parity tests want.  Crashes are simulated
(:meth:`InprocShard.inject_kill`), so the router's supervision, restart and
session-replay machinery runs deterministically on one loop.

The solving calls (:meth:`InprocShard.submit` and
:meth:`InprocShard.submit_session`) return the server's
:class:`~repro.service.server.QueryResponse` as is.
"""

from __future__ import annotations

import asyncio

from repro.chaos import ChaosError
from repro.service.server import (
    QueryResponse,
    QueryServer,
    QueryServerOptions,
    ServiceStats,
)

__all__ = ["InprocShard", "ShardDeadError"]


class ShardDeadError(RuntimeError):
    """The shard has crashed (:meth:`InprocShard.inject_kill`).

    The router's death signal: it marks the shard dead and starts the
    restart/failover machinery.  Marked ``retryable``: a client that sees
    it raced the crash, and the supervised restart makes reissuing
    worthwhile (the request either never reached the shard or died with
    it -- nothing committed).
    """

    retryable = True


async def _apply_pipe_fault(shard) -> None:
    """Consume one armed chaos pipe fault for this shard, if any.

    ``delay_pipe`` sleeps the injected latency before the call proceeds;
    ``drop_message`` raises a retryable :class:`~repro.chaos.ChaosError`
    without sending anything (the message-loss stand-in: the shard never
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


class InprocShard:
    """A shard sharing the router's process and event loop.

    Supports *simulated* crashes (:meth:`inject_kill`): the shard flips a
    dead flag and every subsequent call raises :class:`ShardDeadError`,
    which exercises the router's detection/restart/failover machinery
    deterministically on a single event loop.  Work already in flight
    completes (the simulation is not preemptive); the state loss is real,
    because a restart builds a brand-new server.
    """

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
    ) -> QueryResponse:
        self._check_alive()
        await _apply_pipe_fault(self)
        response = await self.server.submit(
            problem, method, params, request_id=request_id, deadline=deadline
        )
        self._check_alive()
        return response

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
    ) -> QueryResponse:
        self._check_alive()
        await _apply_pipe_fault(self)
        response = await self.server.submit_session(
            session_id, deltas=deltas, method=method, params=params,
            request_id=request_id, deadline=deadline,
        )
        self._check_alive()
        return response

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
            "requests": stats.requests,
            "sessions_open": stats.sessions_open,
        }

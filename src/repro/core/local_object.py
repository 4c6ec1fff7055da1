"""Local-object composition (Fig. 1 of the paper).

A :class:`LocalObject` is the per-address-space representative of a
distributed shared object: the four-sub-object composition assembled and
wired in one call.
"""

from __future__ import annotations

from typing import Optional

from repro.comm.endpoint import CommunicationObject
from repro.core.control import ControlObject
from repro.core.interfaces import ReplicationObject, Role, SemanticsObject
from repro.transport.interface import Clock, Transport


class LocalObject:
    """The four-component local object of the Globe model.

    Parameters mirror the minimal composition listed in Section 2 of the
    paper: a semantics object (absent for pure-client address spaces, which
    "only translate method calls to messages"), a communication object, a
    replication object and the control object created here.  ``sim`` and
    ``network`` are any :class:`~repro.transport.interface.Clock` /
    :class:`~repro.transport.interface.Transport` pair, so the same
    composition runs in virtual or wall-clock time.
    """

    __slots__ = ("address", "role", "semantics", "comm", "replication",
                 "control")

    def __init__(
        self,
        sim: Clock,
        network: Transport,
        address: str,
        role: Role,
        replication: ReplicationObject,
        semantics: Optional[SemanticsObject] = None,
        reliable_transport: bool = True,
    ) -> None:
        if role.is_store and semantics is None:
            raise ValueError(
                f"{address}: store role {role.value} requires a semantics object"
            )
        self.address = address
        self.role = role
        self.semantics = semantics
        self.comm = CommunicationObject(
            sim, network, address, reliable=reliable_transport
        )
        self.replication = replication
        self.control = ControlObject(
            sim=sim,
            comm=self.comm,
            replication=replication,
            semantics=semantics,
            role=role,
        )

    def start(self) -> None:
        """Start the replication object's timers and subscriptions."""
        self.replication.start()

    def destroy(self) -> None:
        """Tear the local object down and detach from the network."""
        self.control.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LocalObject({self.address}, {self.role.value})"

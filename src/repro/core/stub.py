"""Client stubs.

Binding to a distributed shared object places a local object in the client's
address space and returns a :class:`Stub`.  The stub is deliberately thin:
it marshals method calls into invocation messages and hands them to the
control object, exactly as the paper describes ("clients only translate
method calls to messages").  All coherence intelligence -- session
dependency tracking, demand updates -- lives in the client-side replication
object behind the control object.
"""

from __future__ import annotations

import functools
from typing import Any

from repro.comm.invocation import MarshalledInvocation
from repro.core.control import ControlObject
from repro.sim.future import Future

#: Process-wide marshalling cache for keyword-free calls, called as
#: ``_marshal(method, args, (), read_only)``.  An invocation is an
#: immutable value, so every stub making the same call shares one
#: instance instead of re-marshalling it.
_marshal = functools.lru_cache(maxsize=1024)(MarshalledInvocation)


class Stub:
    """Dynamic proxy for one client's view of a distributed shared object."""

    __slots__ = ("_control", "client_id")

    def __init__(self, control: ControlObject, client_id: str) -> None:
        self._control = control
        self.client_id = client_id

    def invoke(
        self,
        method: str,
        *args: Any,
        read_only: bool = True,
        weight: int = 1,
        **kwargs: Any,
    ) -> Future:
        """Invoke ``method`` on the distributed object.

        Returns a future resolved with the method result once the local
        object's coherence protocol allows the invocation to complete.
        ``weight`` is coherence metadata, not a method argument: the call
        stands in for that many identical cohort clients (weighted
        accounting in traces and metrics), so it travels beside the
        marshalled invocation rather than inside it.
        """
        if kwargs:
            invocation = MarshalledInvocation(
                method=method,
                args=args,
                kwargs=tuple(sorted(kwargs.items())),
                read_only=read_only,
            )
        else:
            try:
                invocation = _marshal(method, args, (), read_only)
            except TypeError:  # unhashable argument: marshal uncached
                invocation = MarshalledInvocation(
                    method=method, args=args, read_only=read_only
                )
        return self._control.invoke(invocation, weight=weight)

    def read(
        self, method: str, *args: Any, weight: int = 1, **kwargs: Any
    ) -> Future:
        """Shorthand for a read-only invocation."""
        return self.invoke(method, *args, read_only=True, weight=weight,
                           **kwargs)

    def write(self, method: str, *args: Any, **kwargs: Any) -> Future:
        """Shorthand for a state-modifying invocation."""
        return self.invoke(method, *args, read_only=False, **kwargs)

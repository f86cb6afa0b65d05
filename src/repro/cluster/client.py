"""The cluster-aware client shim: one tenant, N possible homes.

A :class:`ClusterClient` is the address-virtualising
:class:`~repro.core.elastic.ElasticClient` (which explains the
translation) plus what a partition that moves *between nodes* needs:
the node it currently lives on, :meth:`~ClusterClient.rebind` onto a
new node after a live migration, and a refusal to talk to a crashed
one.
"""

from __future__ import annotations

from typing import Optional

from repro.core.client import GuardianClient
from repro.core.elastic import ElasticClient
from repro.errors import NodeDown
from repro.faults.plan import FaultPlan


class ClusterClient(ElasticClient):
    """A tenant's view of the *cluster*: follows its partition around."""

    def __init__(self, node, app_id: str, max_bytes: int,
                 fault_plan: Optional[FaultPlan] = None):
        #: The node currently hosting this tenant's partition.
        self.node = node
        self.max_bytes = max_bytes
        super().__init__(node.dispatch_target, app_id, max_bytes,
                         fault_plan=fault_plan)

    @property
    def _inner(self) -> GuardianClient:
        # Every forwarded call reaches the wrapped client through here,
        # so this is the one place a dead home is refused.
        if self.node.crashed:
            raise NodeDown(self.app_id, self.node.node_id)
        return self._client

    @_inner.setter
    def _inner(self, client: GuardianClient) -> None:
        self._client = client

    # Readable on a crashed node: the cluster's detach needs them.

    @property
    def channel(self):
        return self._client.channel

    @property
    def crashed(self) -> bool:
        return self._client.crashed

    def close(self) -> None:
        if self.node.crashed:
            self._client.channel.abort()
            return
        super().close()

    def rebind(self, node, new_base: int) -> None:
        """Point this client at the tenant's new home.

        The replacement inner client gets a *fresh* IPC channel bound
        to the destination node, opened without re-attaching (the
        target server already adopted the tenant): its marshal shadow
        cursor starts at zero, matching the destination trace engine's
        cold start. The old channel is aborted, not flushed: anything
        still queued was captured by (or superseded by) the migration
        snapshot.
        """
        old = self._client
        self._inner = GuardianClient(
            node.dispatch_target, self.app_id, self.max_bytes,
            fault_plan=old._faults, attach=False,
        )
        old.channel.abort()
        self.node = node
        self.rebase(new_base)

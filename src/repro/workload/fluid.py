"""``FluidClient``: an alias of :class:`~repro.workload.shards.ShardClientWake`."""

from .shards import ShardClientWake

# Kept only for the traced benchmark (perfbench/layers.py imports this
# name); remove together with that import in the next benchmark change.
FluidClient = ShardClientWake

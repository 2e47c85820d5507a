"""Hierarchical network data substrate.

The paper's evaluation data are streams collected on a three-level mobility
network hierarchy: RNC -> cell tower (Node B) -> sector/antenna (Section 3.1).
This package provides the topology model, the time-series containers, the
synthetic generator that stands in for the proprietary AT&T feed, and the
glitch injector that reproduces the paper's glitch mix.
"""

from repro.data.block import SampleBlock
from repro.data.dataset import StreamDataset
from repro.data.generator import GenerationShard, GeneratorConfig, NetworkDataGenerator, generate_shard
from repro.data.glitch_injection import (
    GlitchInjectionConfig,
    GlitchInjector,
    InjectionShard,
    inject_shard,
)
from repro.data.slab import SlabFeed, SlabSource, load_slab, open_slab
from repro.data.stream import TimeSeries
from repro.data.topology import NetworkTopology, NodeId

__all__ = [
    "NodeId",
    "NetworkTopology",
    "TimeSeries",
    "StreamDataset",
    "SampleBlock",
    "GeneratorConfig",
    "NetworkDataGenerator",
    "GenerationShard",
    "generate_shard",
    "GlitchInjectionConfig",
    "GlitchInjector",
    "InjectionShard",
    "inject_shard",
    "SlabFeed",
    "SlabSource",
    "open_slab",
    "load_slab",
]

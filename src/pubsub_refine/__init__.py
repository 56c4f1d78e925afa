"""Executable flooding-pubsub model, its atomic-broadcast specification,
and runnable checkers for the simulation-refinement obligations."""

from .broadcast_model import BroadcastPeer, BroadcastState
from .core import ContractError, Message
from .flood_model import FloodPeer, FloodState
from .refinement import check_wfs1, check_wfs2, check_wfs3, label, refinement_map, related

__version__ = "0.1.0"

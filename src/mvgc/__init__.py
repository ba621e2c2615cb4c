"""Multi-view graph clustering with a learned consensus graph.

The pipeline infers a relaxed consensus adjacency from concatenated view
features under a belief-weighted Bernoulli prior, embeds each view by
parameter-free message passing along both its own graph and the consensus,
and clusters the belief-weighted fusion with a self-sharpening soft
assignment.  ``mvgc.trainer.fit`` runs the whole loop; the submodules expose
the pieces.
"""

__version__ = "0.1.0"

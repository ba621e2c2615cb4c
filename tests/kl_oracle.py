"""The n x n oracle of the KL bound, for the tests that check the bound a
fit takes from edge-pattern counts (``mvgc.vargen.pattern_kl_bound``)."""

import numpy as np


def kl_upper_bound(beta):
    """Sum of log(1/beta) over all pairs of the prior ``beta``: the
    closed-form bound on the KL divergence from posterior to prior, summed
    entry by entry over the n x n prior of ``compute_prior_beta``."""
    return float(-np.log(beta).sum())

import numpy as np
import pytest

from cbmdetect._rng import PERTURB, RELEASE, SAMPLE, SUBSAMPLE, THRESHOLD, generator
from cbmdetect.cdp import release_assuming_stable, stability_release, subsample_stability_release
from cbmdetect.detect import cdp_threshold
from cbmdetect.ldp import PrivacyBudget, perturb_graph
from cbmdetect.model import CbmParams, random_labels, sample_cbm
from cbmdetect.recovery import ml_exhaustive, spectral_estimate

PARAMS = CbmParams(n=6, p=0.7, zeta=0.2)
LABELS = random_labels(6, np.random.default_rng(1))
GRAPH = sample_cbm(PARAMS, LABELS, 3)
BUDGET = PrivacyBudget(1.5, 0.05)


def _release(out):
    return out.labels.tobytes(), out.released, out.noisy_distance


# (public draw as a function of its seed, the stream an int seed reads)
DRAWS = {
    "sample_cbm": (lambda s: sample_cbm(PARAMS, LABELS, s), SAMPLE),
    "perturb_graph": (lambda s: perturb_graph(GRAPH, 1.5, s), PERTURB),
    "cdp_threshold": (lambda s: cdp_threshold(2.0, 0.1, 1.5, s).b_tilde, THRESHOLD),
    "release_assuming_stable": (
        lambda s: _release(release_assuming_stable(GRAPH, BUDGET, spectral_estimate, s)),
        RELEASE,
    ),
    "stability_release": (
        lambda s: _release(stability_release(GRAPH, BUDGET, ml_exhaustive, s, cap=1)),
        RELEASE,
    ),
    "subsample_stability_release": (
        lambda s: _release(
            subsample_stability_release(GRAPH, BUDGET, spectral_estimate, s, max_subgraphs=3)
        ),
        SUBSAMPLE,
    ),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", DRAWS)
def test_public_draws_read_an_int_or_a_generator(name):
    draw, tag = DRAWS[name]
    first = draw(9)
    assert draw(9) == first
    assert draw(10) != first
    # an int seed is the stream generator(seed, tag); a generator is advanced in place
    rng = generator(9, tag)
    assert draw(rng) == first
    assert draw(rng) != first

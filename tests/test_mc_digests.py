"""Recorded sha256 digests of the Monte Carlo per-trial arrays.

The colour-uniformity suite prints only a verdict, so a wrong count could
pass unseen; these digests pin the exact per-trial counts and means of
every Monte Carlo estimator over a grid of ``n`` and window sizes whose
windows cross word, trim and (with a small ``packed.CHUNK_WORDS``, the
one budget of trial chunks and of draws) chunk and draw boundaries.  Any
change to a draw, a kernel or a reduction changes them.
"""

import hashlib

import numpy as np
import pytest

from pcalab import density, packed

NS = (0, 16, 65, 130)
SITES = (1, 64, 1024)
TRIALS = 5
#: the 1024-site windows (17-19 words) run 2 trials a chunk, 1 step a draw
CHUNK_WORDS = 40


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _per_trial(monkeypatch, estimator):
    """The per-trial array each report is summarised from."""
    seen = []
    summarize = density._summarize

    def spy(per_trial):
        seen.append(per_trial.copy())
        return summarize(per_trial)

    monkeypatch.setattr(density, "_summarize", spy)
    estimator()
    (per_trial,) = seen
    return per_trial


def _color(monkeypatch, n, sites):
    return density.color_density_batch(n, TRIALS, 11, sites)


def _mc(model, init, p):
    def run(monkeypatch, n, sites):
        return (_per_trial(monkeypatch, lambda: density.mc_density(
            model, init, n, TRIALS, 12, sites, p)),)
    return run


def _pair(init):
    def run(monkeypatch, n, sites):
        return (_per_trial(monkeypatch, lambda: density.mc_pair_statistic_A(
            init, n, TRIALS, 13, sites)),)
    return run


RUNNERS = {
    "color": _color,
    "b-full": _mc("b", "full", 0.5),
    "b-iid0.5": _mc("b", "iid", 0.5),
    "b-iid0.3": _mc("b", "iid", 0.3),
    "c-full": _mc("c", "full", 0.5),
    "c-iid0.5": _mc("c", "iid", 0.5),
    "c-iid0.3": _mc("c", "iid", 0.3),
    "a-uniform": _pair("uniform"),
    "a-ones": _pair("ones"),
    "a-zeros": _pair("zeros"),
    "a-0110": _pair("0110"),
}


#: Recorded before the colour counts moved onto packed words.
DIGESTS = {
    "a-0110": "e449be797c6f0b130ef3e25e5cbd82df90c5c27df76e5cf64237da67bb4be9aa",
    "a-ones": "8d68bd45d38a5e648dee8ca2e3df37c65d7bb70dbfdfa822e571278503f72c91",
    "a-uniform": "d1883c992659ccc9521e010d4418e958af2dcad96c0ba0804b6a081d01dfd09f",
    "a-zeros": "8d68bd45d38a5e648dee8ca2e3df37c65d7bb70dbfdfa822e571278503f72c91",
    "b-full": "b64d23dd1b2159314b0629eed57265185f64046c4a5373d0e86c38cb49b9eea0",
    "b-iid0.3": "f2afca3766d9c317a46aa1bc02c38ade9cb3e050c755a7b732092177c3fa16e9",
    "b-iid0.5": "9603ad40c24e657d7ca41a3e3052ecdf2d2d7800e95cc55cd3c03aef46e07796",
    "c-full": "204346ebe332124f6a11acf220180178f2952c62cf7e5d985b8f9818c8823759",
    "c-iid0.3": "70825079f09277a99838a30abab31fd386452f9e2dc3791ea279f481bdd56c82",
    "c-iid0.5": "3c37a39bb587dd25d1f79814824be55ea7a780db663f888b0b5587f50bdecaf1",
    "color": "431715dff9e52da65b83304d47c4acaf6f48d02639df78018118f84c21516115",
}


@pytest.mark.parametrize("case", sorted(RUNNERS))
def test_monte_carlo_per_trial_arrays_are_pinned(case, monkeypatch):
    monkeypatch.setattr(packed, "CHUNK_WORDS", CHUNK_WORDS)
    arrays = []
    for n in NS:
        for sites in SITES:
            with monkeypatch.context() as m:
                arrays += RUNNERS[case](m, n, sites)
    assert _digest(arrays) == DIGESTS[case]


"""Test-session set-up.

BLAS is held to one thread before numpy loads, as bench/run.py does, so
that test timings compare between runs on a shared host.  A value already
set in the environment is kept.
"""

import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from ncshilov import matcore  # noqa: E402  (numpy loads after the BLAS settings)


@pytest.fixture
def cholesky_answers(monkeypatch):
    """matcore.certified_above wrapped for one test: the list of its
    answers, in call order."""
    answers = []
    real = matcore.certified_above

    def spy(a, floor):
        answers.append(real(a, floor))
        return answers[-1]

    monkeypatch.setattr(matcore, "certified_above", spy)
    return answers

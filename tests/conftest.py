import sys

import pytest

from dynsamp_lab import perturb


def unprune(monkeypatch) -> None:
    """Drop every certificate's bound and keep every record: each search
    trial's margin then comes from the kernel on the stack built from its
    drawn instance, and every recorded trial carries its hypothesis
    values."""
    monkeypatch.setattr(perturb, "KEPT_RECORDS", sys.maxsize)
    for name, kind in perturb.CERTIFICATES.items():
        monkeypatch.setitem(perturb.CERTIFICATES, name,
                            kind._replace(bound=None))


@pytest.fixture
def unpruned(monkeypatch):
    """The search as :func:`unprune` leaves it."""
    unprune(monkeypatch)

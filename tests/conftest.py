"""Shared fixtures: every test starts without ``PNBM_SEED``, so no table depends on the shell."""

import pytest


@pytest.fixture(autouse=True)
def _no_seed_from_the_environment(monkeypatch):
    monkeypatch.delenv("PNBM_SEED", raising=False)

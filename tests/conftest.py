"""Shared fixtures: every test sees the CLI's own default formats."""
import pytest


@pytest.fixture(autouse=True)
def no_ambient_format(monkeypatch):
    """Drop KRAWTCHOUK_FORMAT, so that a value set in the calling shell changes
    no output; a test that needs the variable sets it itself."""
    monkeypatch.delenv("KRAWTCHOUK_FORMAT", raising=False)

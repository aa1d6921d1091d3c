"""Fixtures shared by the replication suites."""

from tests.hygiene import no_leaks  # noqa: F401  (autouse)

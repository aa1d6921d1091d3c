"""Fixtures shared by the query-engine suites."""

from tests.hygiene import no_leaks  # noqa: F401  (autouse)

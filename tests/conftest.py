"""Shared pytest plumbing: collects the acceptance verdict lines and
prints them as a terminal summary block so each criterion reports one
PASS/FAIL line regardless of output capturing, and fails any test that leaves a
``multiprocessing`` child process running."""

import multiprocessing

import pytest

ACCEPTANCE_LINES = []


@pytest.fixture(autouse=True)
def no_stray_children():
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.terminate()
        proc.join()
    assert not left, f"test left child processes running: {left}"


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance summary")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

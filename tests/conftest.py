import time

import pytest

from limitgames.arena import run_game
from limitgames.cli import CATALOGUE
from limitgames.scenario import load_file


@pytest.fixture(scope="session")
def play():
    """``play(file)`` loads ``CATALOGUE / file`` through the scenario loader,
    runs it once per test session and returns ``(spec, result, seconds)``,
    where the seconds time ``run_game`` alone.  The acceptance criteria and
    the shipped-scenario check share the long trap games this way."""
    cache = {}

    def get(file):
        if file not in cache:
            spec = load_file(CATALOGUE / file)
            start = time.monotonic()
            result = run_game(spec)
            cache[file] = (spec, result, time.monotonic() - start)
        return cache[file]

    return get

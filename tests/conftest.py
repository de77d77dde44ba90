"""Fixtures shared across test modules."""

from __future__ import annotations

import pytest

from tmcsignal.rl import train
from tmcsignal.trafficgen import MinuteTmc

# 130 vehicles a minute, 100 of them from the west and 10 from each other approach.
DOMINANT_WB_COUNTS = (20, 60, 20, 2, 6, 2, 2, 6, 2, 2, 6, 2)


@pytest.fixture(scope="session")
def dominant_wb_allocators():
    """Ten allocators trained 100 episodes on an hour of west-dominant demand, seeds 0-9.

    The training is one of the slowest steps of the suite, so every test that needs
    these allocators reads this one result.
    """
    stream = MinuteTmc([DOMINANT_WB_COUNTS] * 60)
    return train([stream] * 10, episodes=100, seeds=range(10))

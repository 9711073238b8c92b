import numpy as np
import pytest


@pytest.fixture
def bad_grids():
    """(grid, values, reason): bad grids the shared uniform-grid validator rejects, with the reason it gives."""
    return [
        (np.array([0.0]), np.zeros(1), "matching 1-d arrays with >= 2 points"),
        (np.array([0.0, 1.0, 2.0]), np.zeros(2), "matching 1-d arrays with >= 2 points"),
        (np.zeros((2, 2)), np.zeros((2, 2)), "matching 1-d arrays with >= 2 points"),
        (np.array([0.0, -1.0]), np.zeros(2), "strictly increasing"),
        (np.array([0.0, 1.0, 1.0]), np.zeros(3), "strictly increasing"),
        (np.array([0.0, 1.0, 1.5]), np.zeros(3), "grid step is not constant"),
    ]

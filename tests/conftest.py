import os
from pathlib import Path

import pytest

from spartitions import count_binary_partitions_table, count_s_partitions_table


@pytest.fixture(scope="session")
def table500():
    return count_s_partitions_table(500)


@pytest.fixture(scope="session")
def binary500():
    return count_binary_partitions_table(500)


@pytest.fixture(scope="session")
def src_env():
    """Environment for a child interpreter that imports the package from ./src."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = filter(None, (str(src), os.environ.get("PYTHONPATH")))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}

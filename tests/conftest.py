import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Each test reaps every process it starts: after it, waitpid finds no child at all."""
    yield
    with pytest.raises(ChildProcessError):  # a running or exited child would be returned
        os.waitpid(-1, os.WNOHANG)

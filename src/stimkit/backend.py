"""Name of the kernel implementation, for environment records.

Every kernel is vectorized numpy; there is no other backend to select.
The function stays because benchmark harnesses record it next to the
Python and numpy versions (``perfbench/run.py`` calls it).
"""


def active_backend():
    """Name of the kernel implementation: always 'numpy'."""
    return "numpy"

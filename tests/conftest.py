"""Import ``evcoop`` before any test module imports numpy, so the suite runs
with the package's one-BLAS-thread default like every other entry point."""

import evcoop  # noqa: F401

"""The kernel binding.

Every module reaches the term-arithmetic kernel through ``kernel`` here, so a
tracer that wraps this one name sees every kernel call.
"""

from . import _kernel_py as kernel


def backend_name() -> str:
    return kernel.BACKEND

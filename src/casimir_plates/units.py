"""cli.HBAR_C_SI under the module name that bench/tracing.py imports."""
from .cli import HBAR_C_SI  # noqa: F401

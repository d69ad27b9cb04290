"""The errors `cli.main` catches that no computing module defines: a
refusal, raised by the prediction modules, and a malformed spec or
argument, raised by the spec reader and the argument parser.  They live
apart from both, so a command that reads no spec file loads neither."""


class RefusalError(RuntimeError):
    """Raised when asymptotics are declined (obstructed or unsupported)."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class SpecFormatError(ValueError):
    """Malformed spec JSON, with a best-effort location message."""

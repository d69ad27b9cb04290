"""The refusal `cli.main` catches, kept apart from the prediction modules."""


class RefusalError(RuntimeError):
    """Raised when asymptotics are declined (obstructed or unsupported)."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}

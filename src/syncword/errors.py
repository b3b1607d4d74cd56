"""Exception types shared across the package."""


class DfaError(ValueError):
    """Invalid automaton input: bad sizes, out-of-range targets or letters."""


class DfaParseError(DfaError):
    """Malformed DFA text; carries the 1-based line number of the offense."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CapacityError(RuntimeError):
    """Search space exceeds the configured limit (subset BFS cap, scan guard)."""

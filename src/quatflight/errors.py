"""Exception types shared across the library."""


class QuatflightError(Exception):
    """Base class for all library-specific errors."""


class SingularityError(QuatflightError):
    """A state reached a point where the chosen parameterization is undefined."""


class ConfigError(QuatflightError):
    """A scenario configuration failed validation.

    ``messages`` holds one human-readable entry per offending field.
    """

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))

"""Exception types shared across the library and the CLI exit-code mapping,
and the one way a settings object raises its problems."""


class ContractError(ValueError):
    """An operation was called with arguments that violate its contract."""


class ConfigError(ContractError):
    """Invalid experiment configuration or command line. Carries every
    detected problem in ``problems``, one message per offending key."""

    def __init__(self, problems):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


class Validated:
    """A settings dataclass whose ``problems()`` lists every rule its values
    break; ``validate()`` raises them all as one ContractError."""

    def validate(self):
        problems = self.problems()
        if problems:
            raise ContractError("; ".join(problems))


class NumericalError(RuntimeError):
    """Training or evaluation produced a non-finite value."""

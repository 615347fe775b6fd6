"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: configuration problems and the other
refusals exit with 2, among them a dt above the stable bound
(`StabilityError`), which is refused before the march, so nothing is
written; numerical divergence during a run (NaN/Inf, energy growth or a
maximum-principle violation) exits with 3; failed acceptance checks in
``report`` exit with 4.
"""


class PhaseLabError(Exception):
    """Base class for all package errors."""


class ConfigurationError(PhaseLabError):
    """Invalid grid/physics/run configuration (CLI exit code 2)."""


class StabilityError(PhaseLabError):
    """Requested time step exceeds the stable bound (CLI exit code 2)."""


class DivergenceError(PhaseLabError):
    """Numerical divergence: NaN/Inf, energy growth, or max-principle
    violation during a run (CLI exit code 3)."""


class UsageError(PhaseLabError):
    """API misuse: inconsistent records, windows outside a record, wrong
    test-field flags."""


class ContactSingularityError(PhaseLabError):
    """Front-tracking contact angle degenerated (tangential contact)."""


class ResolutionError(PhaseLabError):
    """Front-tracking segment collapse below resolution."""


class ExtinctionError(PhaseLabError):
    """Closed-form solution queried past its extinction time."""

"""The root of the errors k3cert raises on bad input."""


class K3CertError(ValueError):
    """A malformed, degenerate or unsupported input.  The CLI reports it
    in one line and exits 2."""

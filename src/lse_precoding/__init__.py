"""Nonlinear least-square precoding toolkit: replica-symmetric large-system
predictions for penalized precoders and finite-n Monte Carlo validation.
The package holds only `__version__`; import its modules by name, such as
`lse_precoding.replica`, `lse_precoding.simulator` and
`lse_precoding.experiments`."""

__version__ = "0.1.0"

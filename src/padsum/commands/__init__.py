"""The runner and the reports of each command family, one module each:
``tables`` (tables, seq and seq-compare), ``verify_finite``,
``verify_padic``, ``verify_telescope`` and ``verify_ode``.

``cli`` parses the arguments and imports a family's module only when one
of its commands runs, so a command compiles and runs no other command's
code.  A module here calls library functions and ``cli``'s helpers
through their modules, looked up at call time, so that a function rebound
in its module (by a test, or by a tracer) is the one called.  A check that
fails in a ``verify`` runner raises ``VerificationError`` to ``cli.cmd_verify``.
"""

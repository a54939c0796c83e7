"""Hypothesis profiles. The `ci` profile, chosen with
`--hypothesis-profile=ci`, is the default profile plus `print_blob`: a
failing example prints its `@reproduce_failure` line, so a failure seen in
CI can be replayed locally."""
from hypothesis import settings

settings.register_profile("ci", print_blob=True)

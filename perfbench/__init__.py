"""End-to-end time-to-r(v) benchmark; see README.md."""

import sys

from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# Five times the default 100 examples, for a deeper search on every CI push;
# tests that set their own count scale it by the loaded profile's depth.
settings.register_profile("ci", settings.get_profile("default"), max_examples=500)
settings.load_profile("default")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criterion verdicts even when capture is on."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "STATUS_LINES", None)
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)

import contextlib
import io
import sys
from typing import NamedTuple


class CliResult(NamedTuple):
    """What one `forge` run printed and how it exited."""

    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def run_forge(args) -> CliResult:
    """Run `forge args` in this process through forge.cli.main.  An
    exception that the CLI does not turn into an exit code propagates."""
    from forge.cli import main

    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args), prog_name="forge")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return CliResult(code, out.getvalue(), err.getvalue())


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance gate verdict lines after the test summary."""
    module = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance"
    )
    lines = getattr(module, "GATE_LINES", ()) if module else ()
    if lines:
        terminalreporter.section("acceptance gate")
        for line in lines:
            terminalreporter.write_line(line)

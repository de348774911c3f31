"""`entwine corpus run` with its checks decided in reversed order.

`corpus run` decides its checks one after another in a fixed order.  Its
report must not depend on that order: no check may lean on state an
earlier one left behind.  `run_reversed` collects the checks of a run
without deciding them, decides them from the last to the first, and then
renders the run's report from those results, each in its own place.
"""

import io
from contextlib import redirect_stdout

from entwine import cli


def run_reversed(monkeypatch, argv):
    """(exit code, stdout) of `entwine <argv>` with reversed check order."""
    real = cli._run_one
    tasks = []

    def collect(task):
        tasks.append(task)
        return {"entry": task[0], "field": task[1], "check": task[2],
                "pass": True, "note": ""}

    monkeypatch.setattr(cli, "_run_one", collect)
    with redirect_stdout(io.StringIO()):
        cli.main(list(argv))
    done = {task[:3]: real(task) for task in reversed(tasks)}
    monkeypatch.setattr(cli, "_run_one", lambda task: done[task[:3]])
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    monkeypatch.setattr(cli, "_run_one", real)
    return code, buf.getvalue()

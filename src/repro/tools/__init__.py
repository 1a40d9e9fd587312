"""Command-line tools: the srkc compiler driver, the trace exporter
(``python -m repro.tools.trace``), and the engine-counter reporter
(``python -m repro.tools.stats`` — per-layer counter tables, saved
snapshots, and snapshot diffs). See docs/observability.md.

A CLI reports a library error (:class:`~repro.errors.ReproError`) or an
unreadable input file as one ``error:`` line and exits 1."""


def number(text):
    """A ``--args`` kernel argument: an int, else a float. As an argparse
    ``type=``, a malformed value is a usage error."""
    try:
        return int(text)
    except ValueError:
        return float(text)

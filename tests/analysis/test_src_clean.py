"""Meta-test: the analyzer runs clean over the real src/ tree.

This is the same invocation CI gates on (``python -m repro.analysis``):
zero unsuppressed findings, zero stale suppressions, every suppression in
``analysis-suppressions.txt`` carrying a justification.
"""

from __future__ import annotations

from repro.analysis.__main__ import default_root, default_suppressions, main
from repro.analysis.suppressions import load_suppressions


def test_analyzer_clean_on_src(capsys):
    rc = main([])
    out = capsys.readouterr().out
    assert rc == 0, f"repro.analysis found unsuppressed issues:\n{out}"
    assert "0 unsuppressed findings" in out


def test_every_suppression_is_justified():
    path = default_suppressions(default_root().resolve())
    # The file may be empty of entries (it is since the streamed read
    # stopped iterating the tombstone set); it must still exist and parse.
    assert path.is_file(), f"expected a suppression file at {path}"
    for key, entry in load_suppressions(path).items():
        # load_suppressions already rejects empty justifications; insist on
        # a real sentence, not a placeholder.
        assert len(entry.justification) >= 20, (key, entry.justification)

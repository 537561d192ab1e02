"""Every line of the golden transcript (tests/golden/transcript.txt) still
exits with the same status and prints the same stdout, byte for byte.  A
change that means to alter a line regenerates the file with
`python3 tests/golden/transcript.py --write` and says so."""

from golden import transcript


def test_golden_transcript_is_unchanged():
    lines = transcript.diff()
    assert not lines, "".join(lines)

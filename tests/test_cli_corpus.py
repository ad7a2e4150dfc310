"""The CLI contract, pinned as a whole: exit codes and stdout of a seeded
corpus of requests, as criterion 10 pins the suite output.

``tools/cli_corpus.py`` draws requests for every command and every
``arith`` op in both dims, refusals included, and runs them in process,
one outcome line each (argv, exit code, SHA-256 of stdout).  This test runs
20 rounds at seed 1 and pins the digest of all the lines.  When the digest
moves, it names every request whose line moved, from one fingerprint per
line kept in ``cli_corpus_seed1_rounds20.txt`` (the exit code and a short
digest of the line).

A change that moves an answer on purpose sets ``CORPUS_SHA256`` again and
rewrites the fingerprints, from the repository root::

    PYTHONPATH=src python3 tests/test_cli_corpus.py
"""

import hashlib
import importlib.util
import io
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
FINGERPRINTS = pathlib.Path(__file__).with_name("cli_corpus_seed1_rounds20.txt")
SEED, ROUNDS, REQUESTS = 1, 20, 796
CORPUS_SHA256 = "42c0db639cdabc68d1769aa736470d30d0e909caad065c3a040021b1ba6a1a5c"
# an internal invariant failure: a bug, never an answer
EXIT_BUG = "4"


def _corpus_lines() -> list:
    spec = importlib.util.spec_from_file_location("cli_corpus", ROOT / "tools" / "cli_corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    out = io.StringIO()
    assert corpus.run(seed=SEED, rounds=ROUNDS, out=out) == REQUESTS
    return out.getvalue().splitlines()


def _fingerprint(line: str) -> str:
    """The exit code and a short digest of an outcome line."""
    return f"{line.split(chr(9))[1]}\t{hashlib.sha256(line.encode()).hexdigest()[:12]}"


def _moved(lines: list, pinned: list) -> list:
    """The lines whose fingerprint differs from the pinned one, each with
    its index and the pinned exit code."""
    moved = [
        f"#{i} (pinned exit {old.split(chr(9))[0]}): {line}"
        for i, (line, old) in enumerate(zip(lines, pinned))
        if _fingerprint(line) != old
    ]
    if len(lines) != len(pinned):
        moved.append(f"{len(lines)} lines against {len(pinned)} pinned")
    return moved


def test_the_cli_corpus_is_pinned():
    lines = _corpus_lines()
    bugs = [line for line in lines if line.split("\t")[1] == EXIT_BUG]
    assert not bugs, "requests that exit 4:\n" + "\n".join(bugs)
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    if digest != CORPUS_SHA256:
        moved = _moved(lines, FINGERPRINTS.read_text().splitlines())
        raise AssertionError(f"corpus digest {digest} moved; the lines that moved:\n" + "\n".join(moved))


def test_the_fingerprints_name_a_moved_line():
    lines = [f'["eval", "t"]\t0\t{"a" * 64}', f'["eval", "-t"]\t2\t{"b" * 64}']
    pinned = [_fingerprint(line) for line in lines]
    assert _moved(lines, pinned) == []
    lines[1] = lines[1].replace("\t2\t", "\t3\t")
    assert _moved(lines, pinned) == [f'#1 (pinned exit 2): {lines[1]}']


if __name__ == "__main__":
    FINGERPRINTS.write_text("".join(_fingerprint(line) + "\n" for line in _corpus_lines()))

"""The committed behaviour corpus (``tests/corpus.py``): every call prints
what it printed when ``corpus.txt`` was written, and its oracle accepts it."""

from corpus import changed, read_corpus, replay


def test_corpus_calls_print_what_the_file_pins():
    pinned, problems = replay()
    assert not problems, "\n".join(problems)
    committed = read_corpus()
    assert len(pinned) == len(committed) >= 500
    diff = changed(pinned, committed)
    assert not diff, "calls whose output changed:\n" + "\n".join(diff)

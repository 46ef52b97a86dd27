"""The seeded synthetic corpus: class count, determinism and lead markers."""
import pytest

from blendcnn import synthetic
from blendcnn.synthetic import generate_docs


@pytest.mark.parametrize("n_classes", [2, 3, 4])
def test_class_count_sets_labels_and_size(n_classes):
    docs = generate_docs(6, seed=0, n_classes=n_classes)
    assert len(docs) == 6 * n_classes
    assert sorted({d.label for d in docs}) == list(range(n_classes))


@pytest.mark.parametrize("n_classes", [1, 5])
def test_class_count_outside_the_word_lists_rejected(n_classes):
    with pytest.raises(ValueError, match="n_classes"):
        generate_docs(6, seed=0, n_classes=n_classes)


def test_same_seed_same_corpus():
    a, b = generate_docs(5, seed=3), generate_docs(5, seed=3)
    assert [(d.label, d.text) for d in a] == [(d.label, d.text) for d in b]
    assert [d.text for d in a] != [d.text for d in generate_docs(5, seed=4)]


def test_every_title_opens_with_a_marker():
    markers = {word for words in synthetic._MARKERS for word in words}
    assert all(d.title.split()[0] in markers for d in generate_docs(20, seed=1))

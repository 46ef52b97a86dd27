"""Tokenizer, vocabulary, encoding, CSV loading, and sampling."""
import numpy as np
import pytest

from blendcnn.distill import attach_teacher_logits
from blendcnn.text import (
    PAD_ID,
    PAD_TOKEN,
    UNK_ID,
    UNK_TOKEN,
    CsvSchema,
    Example,
    Vocabulary,
    build_vocab,
    encode,
    encode_dataset,
    load_csv_dataset,
    load_glove,
    sample_rows,
    stratified_sample,
    tokenize,
)


class TestTokenize:
    def test_punctuation_and_case(self):
        assert tokenize("U.S. stocks up 3%") == ["u", "s", "stocks", "up", "3"]

    def test_empty_and_whitespace(self):
        assert tokenize("") == []
        assert tokenize("   \t\n") == []

    def test_underscore_is_a_separator(self):
        assert tokenize("snake_case_name") == ["snake", "case", "name"]


class TestVocabulary:
    def test_build_orders_by_frequency_then_token(self):
        vocab = build_vocab([["a", "b", "a"]], cap=4)
        assert vocab.id_for("a") == 2
        assert vocab.id_for("b") == 3
        assert len(vocab) == 4

    def test_cap_keeps_most_frequent(self):
        corpus = [["x"] * 5 + ["y"] * 3 + ["z"]]
        vocab = build_vocab(corpus, cap=3)
        assert "x" in vocab
        assert "y" not in vocab and "z" not in vocab

    def test_tie_breaks_lexicographically(self):
        vocab = build_vocab([["beta", "alpha"]], cap=4)
        assert vocab.id_for("alpha") == 2
        assert vocab.id_for("beta") == 3

    def test_unknown_maps_to_unk(self):
        vocab = build_vocab([["a"]], cap=3)
        assert vocab.id_for("nope") == UNK_ID
        assert vocab.id_to_token[PAD_ID] == PAD_TOKEN
        assert vocab.id_to_token[UNK_ID] == UNK_TOKEN

    def test_cap_below_reserved_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([["a"]], cap=1)

    def test_empty_corpus_warns(self):
        with pytest.warns(UserWarning):
            vocab = build_vocab([], cap=10)
        assert len(vocab) == 2

    def test_save_load_round_trip(self, tmp_path):
        vocab = build_vocab([["one", "two", "two"]], cap=10)
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        again = Vocabulary.load(path)
        assert again.id_to_token == vocab.id_to_token
        assert again.id_for("two") == vocab.id_for("two")

    def test_load_rejects_sparse_ids(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("<pad>\t0\n<unk>\t1\nword\t5\n")
        with pytest.raises(ValueError, match="line 3|dense"):
            Vocabulary.load(path)

    @pytest.mark.parametrize("token", ["foo", "<unk>"])
    def test_load_rejects_a_repeated_token(self, tmp_path, token):
        path = tmp_path / "vocab.tsv"
        path.write_text(f"<pad>\t0\n<unk>\t1\nfoo\t2\nbar\t3\n{token}\t4\n")
        with pytest.raises(ValueError, match=f"vocab.tsv:5: token '{token}' repeats"):
            Vocabulary.load(path)

    def test_load_rejects_missing_reserved(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("word\t0\nother\t1\n")
        with pytest.raises(ValueError, match="reserved"):
            Vocabulary.load(path)


class TestEncode:
    @pytest.fixture()
    def vocab(self):
        return build_vocab([["a", "b", "c", "a"]], cap=10)

    def test_pads_on_the_right(self, vocab):
        ids, valid = encode(["a"], vocab, 3)
        np.testing.assert_array_equal(ids, [2, 0, 0])
        assert valid == 1

    def test_truncates_keeping_prefix(self, vocab):
        ids, valid = encode(["a", "b", "c", "a", "b", "c"], vocab, 4)
        assert valid == 4
        np.testing.assert_array_equal(ids, [2, 3, 4, 2])

    def test_reencoding_decoded_ids_is_stable(self, vocab):
        ids, valid = encode(["a", "nope", "c"], vocab, 5)
        tokens = [vocab.id_to_token[i] for i in ids[:valid]]
        ids2, valid2 = encode(tokens, vocab, 5)
        np.testing.assert_array_equal(ids, ids2)
        assert valid == valid2

    def test_encode_dataset_carries_labels(self, vocab):
        rows = [("r0", "a b", 1), ("r1", "c", None)]
        examples = encode_dataset(rows, vocab, 4)
        assert examples[0].label == 1 and examples[1].label is None
        assert examples[0].valid_len == 2
        assert examples[1].id == "r1"

    def test_with_teacher_logits_returns_new_example(self):
        ex = Example(id="e", token_ids=np.zeros(3, dtype=np.int64), valid_len=1)
        row = np.array([1.0, 2.0])
        (ex2,) = attach_teacher_logits([ex], {"e": row})
        assert ex.teacher_logits is None
        assert ex2.teacher_logits is row

    def test_encode_dataset_names_a_row_without_tokens(self, vocab):
        with pytest.raises(ValueError, match="'r1' has no tokens"):
            encode_dataset([("r0", "a b", 1), ("r1", " ?! ", 1)], vocab, 4)


class TestGlove:
    def test_partial_coverage(self, tmp_path):
        vocab = build_vocab([["apple", "pear", "plum"]], cap=10)
        path = tmp_path / "vectors.txt"
        path.write_text("apple 1.0 2.0\nplum -1.0 0.5\nextra 9.0 9.0\n")
        emb = load_glove(path, vocab, embed_dim=2, seed=0)
        assert emb.shape == (len(vocab), 2)
        np.testing.assert_array_equal(emb[vocab.id_for("apple")], [1.0, 2.0])
        np.testing.assert_array_equal(emb[vocab.id_for("plum")], [-1.0, 0.5])
        np.testing.assert_array_equal(emb[PAD_ID], [0.0, 0.0])
        # missing token got a small random row, not zeros
        pear = emb[vocab.id_for("pear")]
        assert np.all(np.abs(pear) <= 0.05) and np.any(pear != 0)

    def test_empty_file_zero_coverage(self, tmp_path):
        vocab = build_vocab([["apple"]], cap=10)
        path = tmp_path / "vectors.txt"
        path.write_text("")
        emb = load_glove(path, vocab, embed_dim=3, seed=1)
        np.testing.assert_array_equal(emb[PAD_ID], np.zeros(3))
        # every real row keeps its seeded random init
        assert np.all(np.abs(emb[2:]) <= 0.05) and np.all(emb[2:] != 0)

    def test_wrong_arity_names_line(self, tmp_path):
        vocab = build_vocab([["apple"]], cap=10)
        path = tmp_path / "vectors.txt"
        path.write_text("apple 1.0 2.0\nbroken 1.0\n")
        with pytest.raises(ValueError, match="2"):
            load_glove(path, vocab, embed_dim=2, seed=0)

    @pytest.mark.parametrize("value", ["nan", "-inf", "1e400"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        vocab = build_vocab([["apple", "pear"]], cap=10)
        path = tmp_path / "vectors.txt"
        path.write_text(f"apple 1.0 2.0\npear 1.0 {value}\n")
        with pytest.raises(ValueError, match="vectors.txt:2: non-finite"):
            load_glove(path, vocab, embed_dim=2, seed=0)


class TestCsvLoading:
    def test_agnews_style_rows(self, tmp_path):
        path = tmp_path / "news.csv"
        path.write_text('"3","Fed raises rates","Markets react, sharply"\n'
                        '"1","Talks resume","Borders stay shut"\n')
        rows = load_csv_dataset(path)
        assert rows[0] == ("news.csv:0", "Fed raises rates Markets react, sharply", 2)
        assert rows[1][2] == 0

    def test_bad_label_reports_line(self, tmp_path):
        path = tmp_path / "news.csv"
        path.write_text('"1","ok","ok"\n"x","bad","bad"\n')
        with pytest.raises(ValueError, match=":2"):
            load_csv_dataset(path)

    def test_missing_column_reports_line(self, tmp_path):
        path = tmp_path / "news.csv"
        path.write_text('"1","only one text"\n')
        with pytest.raises(ValueError, match="columns"):
            load_csv_dataset(path)

    @pytest.mark.parametrize("field, message", [
        (b"x" * 131_073, "field larger than field limit"),
        (b"caf\xe9", "bytes that are not UTF-8")], ids=["oversized_field", "latin1_byte"])
    def test_unreadable_field_reports_line(self, tmp_path, field, message):
        path = tmp_path / "news.csv"
        path.write_bytes(b'"1","ok","ok"\n"2","' + field + b'","ok"\n"3","ok","ok"\n')
        with pytest.raises(ValueError, match=f"news.csv:2: {message}"):
            load_csv_dataset(path)

    def test_zero_based_schema(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0,hello there\n1,bye now\n")
        rows = load_csv_dataset(path, CsvSchema(label_col=0, text_cols=(1,), label_base=0))
        assert rows[0][2] == 0 and rows[1][2] == 1


class TestSampling:
    def _pool(self, per_class=50, classes=4):
        return [(f"r{c}-{i}", f"text {c} {i}", c)
                for c in range(classes) for i in range(per_class)]

    def test_stratified_counts_and_order(self):
        rows = self._pool()
        sample, rest = stratified_sample(rows, 10, seed=17)
        assert len(sample) == 40 and len(rest) == 160
        for c in range(4):
            assert sum(1 for r in sample if r[2] == c) == 10
        # both halves keep the original ordering and partition the pool
        assert sample == [r for r in rows if r in set(sample)]
        assert set(sample) | set(rest) == set(rows)
        assert not set(sample) & set(rest)

    def test_stratified_is_seeded(self):
        rows = self._pool()
        a, _ = stratified_sample(rows, 5, seed=3)
        b, _ = stratified_sample(rows, 5, seed=3)
        c, _ = stratified_sample(rows, 5, seed=4)
        assert a == b
        assert a != c

    def test_stratified_insufficient_class_raises(self):
        rows = self._pool(per_class=3)
        with pytest.raises(ValueError, match="class"):
            stratified_sample(rows, 5, seed=0)

    def test_sample_rows_seeded_subset(self):
        rows = self._pool()
        picked = sample_rows(rows, 25, seed=9)
        assert len(picked) == 25
        assert picked == sample_rows(rows, 25, seed=9)
        assert picked == [r for r in rows if r in set(picked)]

    def test_sample_rows_overdraw_raises(self):
        with pytest.raises(ValueError):
            sample_rows(self._pool(per_class=1), 10, seed=0)

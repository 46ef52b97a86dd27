"""Seeded synthetic news-style corpus with the usual 4-class CSV schema.

Each document is a short title plus a description.  Every title opens with
a class marker word (headlines name their topic); body tokens come from
two pools: the same class-specific markers, and shared filler words that
carry no signal.  Markers are drawn with a nearly flat Zipf profile, so a
class's evidence is spread across its whole marker list, and a fixed noise
rate occasionally swaps in a marker from the wrong class, which keeps the
task away from a trivial 100% ceiling.

The point of the generator is experiment control: a small labeled sample
sees each individual marker only a handful of times while a large pool
sees them hundreds of times, so there is real headroom for a teacher
trained on the pool to pass down.  Rows serialize to CSV as
"label","title","description" with 1-based labels, the same shape real
news-topic datasets ship in, so everything downstream of the loader is
agnostic about where the data came from.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CLASS_NAMES",
    "SyntheticDoc",
    "generate_docs",
    "docs_to_rows",
    "write_agnews_csv",
]

CLASS_NAMES = ("world", "sports", "business", "scitech")

# 40 marker words per class, ordered most to least frequent under the Zipf draw.
_MARKERS = (
    # world
    ("government minister border treaty election parliament embassy diplomat "
     "summit ceasefire sanctions refugee coalition envoy protest regime "
     "insurgent annexation communique ratification delegation armistice "
     "junta decree referendum tribunal partition detente emissary accord "
     "hegemony protectorate consulate demarche plebiscite suzerainty "
     "condominium irredentism casus rapprochement").split(),
    # sports
    ("coach season league playoff striker goalkeeper innings tournament "
     "midfielder champion referee penalty marathon relay sprint dugout "
     "wicket birdie slalom freestyle decathlon southpaw scrum quarterback "
     "dribble volley offside grandslam matchpoint hattrick knockout "
     "clubhouse qualifier heptathlon keirin repechage nutmeg peloton "
     "rebounder shutout").split(),
    # business
    ("market shares profit revenue merger investor quarterly dividend "
     "earnings stock acquisition startup forecast inflation portfolio "
     "shareholder bankruptcy audit tariff subsidy liquidity futures "
     "commodity hedge valuation ipo arbitrage solvency buyback windfall "
     "antitrust conglomerate underwriter amortization receivership "
     "escrow leverage annuity debenture recession").split(),
    # scitech
    ("software internet research scientists satellite browser genome "
     "processor telescope robot vaccine broadband algorithm spacecraft "
     "nanotech encryption server quantum silicon neuron prototype "
     "firmware photon asteroid bandwidth enzyme kernel malware "
     "superconductor exoplanet qubit biotech firewall protein chipset "
     "dataset laser reactor antenna molecule").split(),
)

# the 72 filler words, drawn under a Zipf(1) profile
_FILLERS = (
    "the a of to and in on for with at by from after before over under "
    "new old big small first last next early late major minor local global "
    "week month year day today yesterday report group plan deal talks move "
    "set top key row lead rise fall gain drop call push back look way time "
    "people city country company official place work news state long high "
    "low open close start end").split()

# corpus difficulty, calibrated at the desk scale
_MARKER_PROB = 0.10   # share of non-lead tokens drawn from the marker pool
_NOISE_PROB = 0.12    # share of markers taken from a uniformly drawn class
_ZIPF_A = 0.5         # marker-rank exponent: nearly flat
_TITLE_LEN = (3, 8)   # inclusive-exclusive, rng.integers style
_DESC_LEN = (9, 20)


@dataclass
class SyntheticDoc:
    label: int  # 0-based
    title: str
    description: str

    @property
    def text(self) -> str:
        return f"{self.title} {self.description}"


def _zipf_weights(n, a):
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks ** -a
    return w / w.sum()


def _token_stream(rng, total, label, n_classes, lead, marker_p, filler_p):
    """``total`` tokens for one class, drawn in bulk.

    Positions flagged in ``lead`` are markers regardless of _MARKER_PROB;
    noise still applies to them.
    """
    is_marker = rng.random(total) < _MARKER_PROB
    is_marker |= lead
    classes = np.full(total, label)
    noisy = rng.random(total) < _NOISE_PROB
    classes[noisy] = rng.integers(n_classes, size=int(noisy.sum()))
    marker_idx = rng.choice(len(marker_p), size=total, p=marker_p)
    filler_idx = rng.choice(len(filler_p), size=total, p=filler_p)
    return [
        _MARKERS[classes[i]][marker_idx[i]] if is_marker[i] else _FILLERS[filler_idx[i]]
        for i in range(total)
    ]


def generate_docs(n_per_class: int, seed: int, n_classes: int = 4) -> list:
    """Deterministic corpus of ``n_per_class * n_classes`` docs, shuffled."""
    if n_per_class < 1:
        raise ValueError(f"n_per_class must be >= 1, got {n_per_class}")
    if not 2 <= n_classes <= len(_MARKERS):
        raise ValueError(f"n_classes must be in [2, {len(_MARKERS)}]")
    rng = np.random.default_rng(seed)
    marker_p = _zipf_weights(len(_MARKERS[0]), _ZIPF_A)
    filler_p = _zipf_weights(len(_FILLERS), 1.0)
    docs = []
    for label in range(n_classes):
        # interleaved [title, desc, title, desc, ...] lengths, one stream per class
        lens = np.empty(2 * n_per_class, dtype=np.int64)
        lens[0::2] = rng.integers(*_TITLE_LEN, size=n_per_class)
        lens[1::2] = rng.integers(*_DESC_LEN, size=n_per_class)
        lead = np.zeros(int(lens.sum()), dtype=bool)
        lead[np.concatenate(([0], np.cumsum(lens)[:-1]))[0::2]] = True
        stream = _token_stream(rng, int(lens.sum()), label, n_classes, lead,
                               marker_p, filler_p)
        offset = 0
        for i in range(n_per_class):
            t_end = offset + lens[2 * i]
            d_end = t_end + lens[2 * i + 1]
            docs.append(SyntheticDoc(
                label=label,
                title=" ".join(stream[offset:t_end]),
                description=" ".join(stream[t_end:d_end]),
            ))
            offset = d_end
    order = rng.permutation(len(docs))
    return [docs[i] for i in order]


def docs_to_rows(docs, source: str = "synthetic") -> list:
    """(id, text, 0-based label) rows, the shape the CSV loader produces."""
    return [(f"{source}:{i}", doc.text, doc.label) for i, doc in enumerate(docs)]


def write_agnews_csv(path, docs) -> None:
    """Write "label","title","description" rows with 1-based labels."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_ALL)
        for doc in docs:
            writer.writerow([doc.label + 1, doc.title, doc.description])

"""Correctness checkers that do not use the program's own evaluator.

Calls are scored against the catalog the benchmark planted by normalized
variant equivalence: a variant is reduced to (contig, position, ref,
alternate-allele set) after trimming bases shared by ref and alt, and two
variants are the same when those keys are equal.  SAM placement is checked
against the origin the simulator encodes in every read name,
``contig:pos:strand:idx`` (0-based leftmost base, ``+`` or ``-``).
"""

from dataclasses import dataclass

# Leftmost aligned base may sit a few bases off the origin when the read
# carries a simulated indel near its start.
PLACEMENT_SLACK_BP = 10


def normalize(contig, pos, ref, alts):
    """Canonical key of a variant: shared leading/trailing bases trimmed."""
    ref = ref.upper()
    keys = []
    for alt in sorted(a.upper() for a in alts):
        r, a, p = ref, alt, pos
        while len(r) > 1 and len(a) > 1 and r[-1] == a[-1]:
            r, a = r[:-1], a[:-1]
        while len(r) > 1 and len(a) > 1 and r[0] == a[0]:
            r, a, p = r[1:], a[1:], p + 1
        keys.append((p, r, a))
    return (contig, frozenset(keys))


def read_catalog(text):
    """Planted sites from a truth.catalog file: contig, pos, ref, alt[, zyg]."""
    truth = set()
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        f = line.split("\t")
        truth.add(normalize(f[0], int(f[1]), f[2], [f[3]]))
    return truth


def read_calls(text):
    """Called variants from the program's TSV (allele1/allele2 vs ref)."""
    calls = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        f = line.split("\t")
        ref = f[2]
        alts = {a for a in (f[3], f[4]) if a.upper() != ref.upper()}
        calls.append(normalize(f[0], int(f[1]), ref, alts))
    return calls


@dataclass
class CallScore:
    true_calls: int
    false_calls: int
    missed: int

    @property
    def precision(self):
        total = self.true_calls + self.false_calls
        return self.true_calls / total if total else 1.0

    @property
    def recall(self):
        total = self.true_calls + self.missed
        return self.true_calls / total if total else 1.0


def score_calls(calls, truth):
    """Scores normalized calls against the normalized planted set."""
    called = set(calls)
    true_calls = len(called & truth)
    return CallScore(true_calls, len(called - truth), len(truth - called))


@dataclass
class Placement:
    reads: int
    placed: int
    unmapped: int

    @property
    def rate(self):
        return self.placed / self.reads if self.reads else 0.0


def sam_placement(sam_text):
    """Share of reads whose primary record lands at the simulated origin."""
    reads = placed = unmapped = 0
    for line in sam_text.splitlines():
        if not line or line.startswith("@"):
            continue
        f = line.split("\t", 5)
        flag = int(f[1])
        if flag & 0x100:
            continue
        reads += 1
        if flag & 0x4:
            unmapped += 1
            continue
        contig, origin, strand, _ = f[0].rsplit(":", 3)
        reverse = bool(flag & 0x10)
        if (f[2] == contig and (strand == "-") == reverse
                and abs(int(f[3]) - 1 - int(origin)) <= PLACEMENT_SLACK_BP):
            placed += 1
    return Placement(reads, placed, unmapped)

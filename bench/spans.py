"""Reading the traced child's spans and deriving self times from them.

A span is (name id, parent index, start ns, end ns); spans are stored in
call order, so a parent always precedes its children.  Calls in one
process nest properly, so a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

from array import array


class Spans:
    def __init__(self, names, name_ids, parents, starts, ends):
        self.names = list(names)
        self.name_ids = name_ids
        self.parents = parents
        self.starts = starts
        self.ends = ends

    @classmethod
    def load(cls, path: str, names, n: int) -> "Spans":
        cols = [array("i"), array("i"), array("q"), array("q")]
        with open(path, "rb") as fh:
            for col in cols:
                col.fromfile(fh, n)
        return cls(names, *cols)

    def durations(self) -> list:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list:
        """Duration minus the durations of direct children, per span (ns)."""
        durs = self.durations()
        own = list(durs)
        for parent, dur in zip(self.parents, durs):
            if parent >= 0:
                own[parent] -= dur
        return own

    def by_name(self, values) -> dict:
        """Group one value per span into lists keyed by span name."""
        out = {name: [] for name in self.names}
        for nid, v in zip(self.name_ids, values):
            out[self.names[nid]].append(v)
        return out


def layer_of(qualname: str) -> str:
    return qualname.split(".", 1)[0]


def layer_self_ns(spans: Spans, samples: dict) -> dict:
    """Self time per layer (ns), with sampled attribution inside spans.

    A span's self time goes first to the layer that owns the span.  The
    sampler counts, for each owning layer, which layer's code was on top of
    the stack; the owner's self time is then divided in those proportions.
    That moves time spent in functions too fine-grained to span, such as
    the double-double toolkit or the potential lambdas, to their own layer.
    """
    owned: dict = {}
    for name, selfs in spans.by_name(spans.self_times()).items():
        owned[layer_of(name)] = owned.get(layer_of(name), 0) + sum(selfs)
    shares: dict = {}
    for key, count in samples.items():
        owner, inner = key.split(">")
        shares.setdefault(owner, {})
        shares[owner][inner] = shares[owner].get(inner, 0) + count
    result: dict = {}
    for owner, ns in owned.items():
        split = shares.get(owner) or {owner: 1}
        total = sum(split.values())
        for inner, count in split.items():
            result[inner] = result.get(inner, 0) + ns * count / total
    return result


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in [0, 100]; values need not be sorted."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]

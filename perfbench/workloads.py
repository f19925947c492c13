"""Seeded input generators for the perfbench workloads.

Everything here is a pure function of its seed (and, for deltas, of the
graph it is applied to), so the same --seed always yields the same graph
file, the same served-read request stream and the same graph.apply
batches.
"""

import array
import bisect
import json
import random

KERNELS = ("auto", "merge", "galloping", "bitmap", "hash")
ALGOS = ("2d", "cetric", "summa")
PERVERTEX_TOPS = (10, 25, 100)
APPROX_SEEDS = 400
ZIPF_EXPONENT = 1.5
BATCH_OPS = 128          # ops per graph.apply batch, half inserts


def read_binary_graph(path):
    """Returns (num_vertices, sorted array of u * n + v keys with u < v)."""
    with open(path, "rb") as f:
        header = array.array("Q")
        header.fromfile(f, 3)
        _magic, n, m = header
        flat = array.array("I")
        flat.fromfile(f, 2 * m)
    keys = array.array("Q", sorted(
        min(u, v) * n + max(u, v) for u, v in zip(flat[0::2], flat[1::2])))
    return n, keys


def read_keys():
    """The served-read key set, most popular first.

    The expensive verbs (count over algo x kernel, pervertex, clustering)
    take the head of the popularity ranking in a fixed shuffled order;
    cheap approx seeds form the long tail. 419 keys: more than the
    daemon's default 128-entry cache, so the tail drives LRU evictions.
    """
    head = [("count", {"algo": a, "kernel": k}) for a in ALGOS for k in KERNELS]
    head += [("pervertex", {"top": t}) for t in PERVERTEX_TOPS]
    head.append(("clustering", {}))
    random.Random(20190805).shuffle(head)
    tail = [("approx", {"seed": s}) for s in range(APPROX_SEEDS)]
    return head + tail


def head_keys():
    """The expensive keys that head the popularity ranking (19 of them)."""
    return [key for key in read_keys() if key[0] != "approx"]


class ZipfReads:
    """Seeded endless stream of read requests, Zipf-popular over read_keys()."""

    def __init__(self, seed):
        self.rng = random.Random(seed * 7919 + 1)
        self.keys = read_keys()
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(self.keys))]
        total = sum(weights)
        self.cumulative = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self.cumulative.append(acc)
        self.next_id = 1000

    def next(self):
        """Returns (id, verb, params) of the next request."""
        rank = bisect.bisect_left(self.cumulative, self.rng.random())
        verb, params = self.keys[min(rank, len(self.keys) - 1)]
        request_id = self.next_id
        self.next_id += 1
        return request_id, verb, params


def request_line(request_id, verb, params):
    return json.dumps({"id": request_id, "verb": verb, "params": params},
                      separators=(",", ":"))


class DeltaBatches:
    """Seeded graph.apply batches that are valid in sequence.

    Inserts pick absent vertex pairs, deletes pick live edges (the
    original graph's or earlier inserts); no edge appears twice in one
    batch. `next()` advances the tracked edge set as if the batch had
    been applied.
    """

    def __init__(self, seed, num_vertices, base_keys):
        self.rng = random.Random(seed * 104729 + 3)
        self.n = num_vertices
        self.base = base_keys          # sorted keys of the original graph
        self.deleted = set()           # original edges deleted since
        self.inserted = []             # live inserted edges
        self.inserted_set = set()

    def _in_base(self, key):
        i = bisect.bisect_left(self.base, key)
        return i < len(self.base) and self.base[i] == key

    def present(self, key):
        if key in self.inserted_set:
            return True
        return key not in self.deleted and self._in_base(key)

    def _key(self, u, v):
        return min(u, v) * self.n + max(u, v)

    def next(self):
        """Returns the next batch as a list of '+u v' / '-u v' strings."""
        ops = []
        touched = set()
        while len(ops) < BATCH_OPS:
            if self.rng.random() < 0.5:
                u = self.rng.randrange(self.n)
                v = self.rng.randrange(self.n)
                key = self._key(u, v)
                if u == v or key in touched or self.present(key):
                    continue
                touched.add(key)
                ops.append(("+", key))
            else:
                if self.inserted and self.rng.random() < 0.25:
                    key = self.inserted[self.rng.randrange(len(self.inserted))]
                else:
                    key = self.base[self.rng.randrange(len(self.base))]
                if key in touched or not self.present(key):
                    continue
                touched.add(key)
                ops.append(("-", key))
        for sign, key in ops:
            if sign == "+":
                self.inserted.append(key)
                self.inserted_set.add(key)
            elif key in self.inserted_set:
                self.inserted_set.discard(key)
                self.inserted.remove(key)
            else:
                self.deleted.add(key)
        return ["%s%d %d" % (sign, key // self.n, key % self.n)
                for sign, key in ops]

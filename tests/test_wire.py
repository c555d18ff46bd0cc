"""The zero-copy binary wire format (``repro.io.wire``).

Round-trip identity over every container shape the format carries (plain
trees, deep chains, packed forests, MD trees with quotient payloads),
zero-copy guarantees, the full malformed-input taxonomy (every corruption
is a :class:`ValueError` naming the offending field, never a crash),
length-prefixed frames, file save/load with and without mmap, and the
``as_problem`` ingestion path.
"""

from __future__ import annotations

import io
import struct
import zlib

import numpy as np
import pytest

from repro.api import as_problem, solve
from repro.cograph import (
    FlatCotree,
    Graph,
    FlatForest,
    as_flat_cotree,
    caterpillar_cotree,
    md_tree,
    pack,
    random_cotree,
    random_p4_sparse,
    single_vertex,
    unpack,
)
from repro.io import cotree_to_text
from repro.io.wire import (
    HEADER_SIZE,
    MAGIC,
    VERSION,
    frame,
    from_bytes,
    load,
    read_frames,
    save,
    to_bytes,
)

_HEADER = struct.Struct("<4sHHBBBBQQQqQ")


def _empty_flat() -> FlatCotree:
    return FlatCotree(kind=np.zeros(0, dtype=np.int64),
                      child_offset=np.zeros(1, dtype=np.int64),
                      child_index=np.zeros(0, dtype=np.int64),
                      parent=np.zeros(0, dtype=np.int64),
                      leaf_vertex=np.zeros(0, dtype=np.int64),
                      root=-1)


def _rewrite_header(buf: bytes, **overrides) -> bytes:
    """Patch header fields and recompute the CRC (reaches deep checks)."""
    fields = list(_HEADER.unpack_from(buf, 0))
    names = ("magic", "bom", "version", "container", "flags", "dtype_index",
             "dtype_kind", "num_nodes", "num_edges", "num_q", "root",
             "num_instances")
    for name, value in overrides.items():
        fields[names.index(name)] = value
    header = _HEADER.pack(*fields)
    return header + struct.pack("<I", zlib.crc32(header)) \
        + buf[HEADER_SIZE:]


# --------------------------------------------------------------------------- #
# round trips
# --------------------------------------------------------------------------- #

class TestRoundTrip:
    def test_random_trees_are_identical_field_for_field(self):
        for seed in range(6):
            tree = as_flat_cotree(random_cotree(120, seed=seed))
            back = from_bytes(to_bytes(tree))
            assert back == tree
            assert np.array_equal(back.parent, tree.parent)

    def test_empty_and_single_vertex(self):
        for tree in (_empty_flat(), as_flat_cotree(single_vertex())):
            back = from_bytes(to_bytes(tree))
            assert back == tree
            assert back.num_nodes == tree.num_nodes

    def test_depth_5000_caterpillar(self):
        tree = as_flat_cotree(caterpillar_cotree(5000))
        back = from_bytes(to_bytes(tree))
        assert back == tree

    def test_forest_container(self):
        rng = np.random.default_rng(3)
        flats = [as_flat_cotree(random_cotree(int(rng.integers(1, 40)),
                                              seed=int(rng.integers(1e9))))
                 for _ in range(25)] + [_empty_flat()]
        forest = pack(flats)
        back = from_bytes(to_bytes(forest))
        assert isinstance(back, FlatForest)
        assert back.num_instances == forest.num_instances
        for name in ("kind", "child_offset", "child_index", "parent",
                     "leaf_vertex", "roots", "instance_id", "node_base",
                     "vertex_base", "leaf_vertex_local"):
            assert np.array_equal(getattr(back, name), getattr(forest, name))
        for orig, restored in zip(unpack(forest), unpack(back)):
            assert restored == orig

    def test_md_tree_quotient_payload(self):
        g = random_p4_sparse(60, seed=11)
        md = md_tree(g)
        assert len(md.q_offset)          # the interesting case: prime nodes
        back = from_bytes(to_bytes(md))
        assert back == md
        assert np.array_equal(back.spider, md.spider)

    def test_zero_copy_views_into_the_buffer(self):
        tree = as_flat_cotree(random_cotree(64, seed=5))
        buf = to_bytes(tree)
        back = from_bytes(buf)
        for arr in (back.child_offset, back.child_index, back.kind):
            assert arr.base is not None          # a view, not a copy
            assert not arr.flags.writeable       # bytes is read-only

    def test_accepts_bytearray_and_memoryview(self):
        tree = as_flat_cotree(random_cotree(30, seed=1))
        buf = to_bytes(tree)
        assert from_bytes(bytearray(buf)) == tree
        assert from_bytes(memoryview(buf)) == tree


# --------------------------------------------------------------------------- #
# malformed inputs: ValueError with a named field, never a crash
# --------------------------------------------------------------------------- #

class TestMalformed:
    @pytest.fixture()
    def buf(self):
        return to_bytes(as_flat_cotree(random_cotree(20, seed=2)))

    def test_truncated_header(self):
        with pytest.raises(ValueError, match="truncated header"):
            from_bytes(b"RPRW123")

    def test_empty_buffer(self):
        with pytest.raises(ValueError, match="truncated header"):
            from_bytes(b"")

    def test_bad_magic(self, buf):
        with pytest.raises(ValueError, match="bad magic"):
            from_bytes(b"NOPE" + buf[4:])

    def test_byte_swapped_header_is_called_out(self, buf):
        swapped = _rewrite_header(buf, bom=0xFFFE)
        with pytest.raises(ValueError, match="big-endian"):
            from_bytes(swapped)

    def test_unknown_version(self, buf):
        with pytest.raises(ValueError, match="unsupported version 99"):
            from_bytes(_rewrite_header(buf, version=99))

    def test_crc_mismatch(self, buf):
        # flip one header byte without recomputing the CRC
        corrupt = bytearray(buf)
        corrupt[9] ^= 0xFF
        with pytest.raises(ValueError, match="CRC mismatch"):
            from_bytes(bytes(corrupt))

    def test_unknown_container(self, buf):
        with pytest.raises(ValueError, match="unknown container code 7"):
            from_bytes(_rewrite_header(buf, container=7))

    def test_unknown_flags(self, buf):
        with pytest.raises(ValueError, match="unknown flag bits"):
            from_bytes(_rewrite_header(buf, flags=0x80))

    def test_unsupported_dtypes(self, buf):
        with pytest.raises(ValueError, match="dtype codes"):
            from_bytes(_rewrite_header(buf, dtype_index=4))

    def test_root_out_of_range(self, buf):
        with pytest.raises(ValueError, match="root .* out of range"):
            from_bytes(_rewrite_header(buf, root=10 ** 6))

    def test_tree_with_instances_rejected(self, buf):
        with pytest.raises(ValueError, match="num_instances"):
            from_bytes(_rewrite_header(buf, num_instances=3))

    def test_forest_with_prime_payload_rejected(self, buf):
        bad = _rewrite_header(buf, container=1, flags=0x01)
        with pytest.raises(ValueError, match="quotient payload"):
            from_bytes(bad)

    def test_truncated_payload(self, buf):
        with pytest.raises(ValueError, match="length mismatch"):
            from_bytes(buf[:-8])

    def test_trailing_garbage(self, buf):
        with pytest.raises(ValueError, match="length mismatch"):
            from_bytes(buf + b"\x00" * 16)

    def test_inconsistent_child_offset_span(self, buf):
        # shrink num_edges in the header: lengths re-sum consistently only
        # if the payload is also cut, so cut it to match and let the CSR
        # span check catch the lie
        tree = as_flat_cotree(random_cotree(20, seed=2))
        e = len(tree.child_index)
        cut = _rewrite_header(
            buf[:HEADER_SIZE + 8 * (tree.num_nodes + 1)]
            + buf[HEADER_SIZE + 8 * (tree.num_nodes + 1) + 8 * e:],
            num_edges=0)
        with pytest.raises(ValueError, match="child_offset"):
            from_bytes(cut)


# --------------------------------------------------------------------------- #
# body range checks (the CRC covers only the header)
# --------------------------------------------------------------------------- #

def _corrupt_body(field: str, value: int, entry: int = 0) -> bytes:
    """A CRC-valid 7-vertex buffer with one body entry overwritten:
    ``field`` is ``"kind"`` or one of the leading int64 arrays."""
    tree = as_flat_cotree(random_cotree(7, seed=3))
    buf = bytearray(to_bytes(tree))
    n, e = tree.num_nodes, len(tree.child_index)
    if field == "kind":
        buf[len(buf) - n + entry] = value & 0xFF
        return bytes(buf)
    starts = {"child_offset": 0, "child_index": n + 1,
              "parent": n + 1 + e, "leaf_vertex": 2 * n + 1 + e}
    at = HEADER_SIZE + 8 * (starts[field] + entry)
    buf[at:at + 8] = struct.pack("<q", value)
    return bytes(buf)


class TestBodyRanges:
    """Out-of-range kind codes and node indices are refused by the
    decoder with a ValueError naming the field, on every task."""

    ROOT = as_flat_cotree(random_cotree(7, seed=3)).root

    @pytest.mark.parametrize("task", [
        "path_cover", "path_cover_size", "chromatic_number", "max_clique",
    ])
    def test_unknown_kind_code_at_the_root(self, task):
        buf = _corrupt_body("kind", 7, self.ROOT)
        with pytest.raises(ValueError, match=r"kind\[\d+\] = 7"):
            solve(buf, task)

    @pytest.mark.parametrize("field, value, entry, message", [
        ("kind", 3, ROOT, "prime kinds need the prime flag"),
        ("kind", -1, 0, r"kind\[0\] = -1 is outside 0\.\.2"),
        ("parent", -2, 3, r"parent\[3\] = -2 is outside -1\.\.9"),
        ("parent", 10, 3, r"parent\[3\] = 10 is outside -1\.\.9"),
    ])
    def test_decoder_names_the_field(self, field, value, entry, message):
        with pytest.raises(ValueError, match=message):
            from_bytes(_corrupt_body(field, value, entry))

    @pytest.mark.parametrize("task", ["path_cover", "path_cover_size"])
    def test_prime_flagged_body_is_refused_by_path_cover_tasks(self, task):
        # PRIME passes the decoder under the prime flag; the path-cover
        # tasks then refuse it instead of combining it as a join
        p4 = md_tree(Graph(4, [(0, 1), (1, 2), (2, 3)]))
        with pytest.raises(ValueError, match="prime nodes"):
            solve(to_bytes(p4), task)

    @pytest.mark.parametrize("task", ["path_cover", "max_clique"])
    def test_child_index_out_of_range(self, task):
        buf = _corrupt_body("child_index", 10 ** 6)
        with pytest.raises(ValueError, match=r"child_index\[0\] = 1000000"):
            solve(buf, task)

    def test_forest_roots_out_of_range(self):
        forest = pack([as_flat_cotree(random_cotree(5, seed=s))
                       for s in range(3)])
        buf = bytearray(to_bytes(forest))
        n, e = forest.num_nodes, len(forest.child_index)
        at = HEADER_SIZE + 8 * (3 * n + 1 + e)
        buf[at:at + 8] = struct.pack("<q", n)
        with pytest.raises(ValueError, match=r"roots\[0\]"):
            from_bytes(bytes(buf))


class TestBodyStructure:
    """In-range bodies that still do not describe trees over one vertex
    permutation are refused by the decoder, naming the field; unchecked,
    each answers wrongly or crashes into NumPy."""

    TREE = as_flat_cotree(random_cotree(7, seed=3))
    LEAVES = TREE.leaves.tolist()

    @pytest.mark.parametrize("field, value, entry, message, task", [
        # unchecked: max_independent_set [0, 0]
        ("leaf_vertex", int(TREE.leaf_vertex[LEAVES[0]]), LEAVES[1],
         r"leaf_vertex: vertex \d+ labels 2 leaves", "max_independent_set"),
        # unchecked: max_independent_set lists vertex 1000000
        ("leaf_vertex", 10 ** 6, LEAVES[0],
         rf"leaf_vertex\[{LEAVES[0]}\] = 1000000 is outside 0\.\.6",
         "max_independent_set"),
        # unchecked: max_clique size 9 on 7 vertices
        ("child_index", int(TREE.child_index[0]), 1,
         rf"node {int(TREE.child_index[0])} appears 2 times", "max_clique"),
        # a leaf relabelled UNION; unchecked: IndexError in reduceat
        ("kind", 1, LEAVES[0],
         rf"internal node {LEAVES[0]} 0 children", "clique_cover"),
        # a decreasing child_offset
        ("child_offset", -5, 1, r"child_offset gives \w+ node 0 -5 children",
         "path_cover"),
    ])
    def test_decoder_refuses_by_field(self, field, value, entry, message,
                                      task):
        buf = _corrupt_body(field, value, entry)
        with pytest.raises(ValueError, match=message):
            from_bytes(buf)
        with pytest.raises(ValueError, match=message):
            solve(buf, task)

    def test_a_leaf_with_children_is_refused(self):
        internal = int(self.TREE.internal_nodes[0])
        with pytest.raises(ValueError, match=rf"leaf node {internal} "):
            from_bytes(_corrupt_body("kind", 0, internal))

    @pytest.mark.parametrize("tree", [
        random_cotree(40, seed=1), caterpillar_cotree(30), single_vertex(),
    ])
    def test_valid_trees_and_forests_still_decode(self, tree):
        flat = as_flat_cotree(tree)
        assert from_bytes(to_bytes(flat)) == flat
        forest = pack([flat, as_flat_cotree(random_cotree(9, seed=2))])
        assert from_bytes(to_bytes(forest)) == forest

    def test_one_child_union_is_refused_by_the_arity_check(self):
        # decodable (every node is one node's child), but binarize's arity
        # check, which wire loads no longer skip, refuses it by name
        tree = FlatCotree(kind=[1, 2, 0, 0], child_offset=[0, 1, 3, 3, 3],
                          child_index=[1, 2, 3], parent=[-1, 0, 1, 1],
                          leaf_vertex=[-1, -1, 0, 1], root=0)
        for form in (tree, to_bytes(tree)):
            with pytest.raises(ValueError, match="at least two children"):
                solve(form, "path_cover")


# --------------------------------------------------------------------------- #
# frames
# --------------------------------------------------------------------------- #

class TestFrames:
    def test_round_trip_many_frames(self):
        payloads = [to_bytes(as_flat_cotree(random_cotree(10 + i, seed=i)))
                    for i in range(8)]
        stream = io.BytesIO(b"".join(frame(p) for p in payloads))
        assert list(read_frames(stream)) == payloads

    def test_clean_eof_on_boundary(self):
        assert list(read_frames(io.BytesIO(b""))) == []

    def test_truncated_prefix(self):
        with pytest.raises(ValueError, match="truncated frame prefix"):
            list(read_frames(io.BytesIO(b"\x01\x02")))

    def test_truncated_body(self):
        stream = io.BytesIO(frame(b"hello")[:-2])
        with pytest.raises(ValueError, match="truncated frame"):
            list(read_frames(stream))

    def test_corrupt_oversize_prefix(self):
        stream = io.BytesIO(struct.pack("<I", 0xFFFFFFFF) + b"x")
        with pytest.raises(ValueError, match="exceeds"):
            list(read_frames(stream))


# --------------------------------------------------------------------------- #
# files
# --------------------------------------------------------------------------- #

class TestFiles:
    def test_save_load_mmap_and_eager(self, tmp_path):
        tree = as_flat_cotree(random_cotree(200, seed=4))
        path = tmp_path / "t.rprw"
        save(tree, path)
        assert load(path, mmap=False) == tree
        mapped = load(path)              # mmap=True is the default
        assert mapped == tree

    def test_constants_are_stable(self):
        # the on-disk contract: changing any of these is a format break
        assert (MAGIC, VERSION, HEADER_SIZE) == (b"RPRW", 1, 56)


# --------------------------------------------------------------------------- #
# ingestion: as_problem + solve
# --------------------------------------------------------------------------- #

class TestIngestion:
    def test_as_problem_accepts_wire_bytes(self):
        tree = as_flat_cotree(random_cotree(50, seed=6))
        problem = as_problem(to_bytes(tree))
        assert problem.source_format == "wire"
        assert problem.pipeline_tree() == tree

    def test_solve_from_wire_matches_text_route(self):
        nested = random_cotree(80, seed=8)
        tree = as_flat_cotree(nested)
        a = solve(to_bytes(tree), "path_cover")
        b = solve(cotree_to_text(nested), "path_cover")
        assert a.answer == b.answer
        assert a.provenance["source_format"] == "wire"

    def test_corrupt_bytes_surface_as_value_error(self):
        with pytest.raises(ValueError, match="invalid wire buffer"):
            as_problem(b"not a wire buffer at all")

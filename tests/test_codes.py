import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from qgldpc import gf2
from qgldpc.cli import main
from qgldpc.codes import (CodeFormatError, ComponentCode, GldpcCode, TannerGraph,
                          _graph_to_obj, builtin_code, flatten, load_code, write_code)

FIXTURES = ("steane", "toric", "toy-gldpc")


def builtin_codes():
    return [builtin_code(name) for name in FIXTURES]


def kernel(H):
    """Every vector of ker H, by brute force over all 2^n patterns."""
    n = H.shape[1]
    pats = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.uint8)
    return pats[~gf2.Syndrome(H)(pats).any(axis=1)]


def kernels_and_stabilizers(code):
    """(ker H_X, row space of H_Z) for Z-logicals, and mirrored for X-logicals."""
    return ((kernel(code.h_x), code.hz_space), (kernel(code.h_z), code.hx_space))


def local_views(g, x):
    """Row j is check j's local view of x: the block SOGRAND decodes."""
    return np.asarray(x)[g.edge_var].reshape(g.m, g.component.n_c)


def random_degree_two_graph(rng, m_c_max=3):
    """Random Tanner graph with every VN in exactly two check slots."""
    n_c = int(rng.integers(2, 9))
    m = int(rng.integers(2, 7))
    if (m * n_c) % 2:
        m += 1
    n = m * n_c // 2
    slots = np.repeat(np.arange(n), 2)
    rng.shuffle(slots)
    cns = [slots[j * n_c:(j + 1) * n_c].tolist() for j in range(m)]
    m_c = int(rng.integers(1, min(m_c_max, n_c) + 1))
    H = rng.integers(0, 2, size=(m_c, n_c), dtype=np.uint8)
    return TannerGraph(n=n, cns=cns, component=ComponentCode(H))


def flatten_loop(g):
    """Reference for ``flatten``: XOR each check's component rows into place, entry by entry."""
    m_c = g.component.m_c
    out = np.zeros((g.m * m_c, g.n), dtype=np.uint8)
    for j, cn in enumerate(g.cns):
        for t in range(m_c):
            for slot in np.flatnonzero(g.component.H[t]):
                out[j * m_c + t, cn[slot]] ^= 1
    return out


class TestFlattenAndLocalView:
    def test_flatten_matches_the_loop(self):
        # random graphs can repeat a variable node within one check, where the
        # two incidences cancel
        rng = np.random.default_rng(3)
        graphs = [random_degree_two_graph(rng) for _ in range(300)]
        graphs += [g for code in builtin_codes() + [builtin_code("toric-5")]
                   for g in (code.x_graph, code.z_graph)]
        for g in graphs:
            flat = flatten(g)
            assert flat.dtype == np.uint8 and np.array_equal(flat, flatten_loop(g))

    def test_single_cn_identity_order(self):
        H = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
        g = TannerGraph(n=3, cns=[[0, 1, 2], [0, 1, 2]], component=ComponentCode(H))
        assert np.array_equal(flatten(g)[:2], H)

    def test_two_disjoint_spc_cns_block_diagonal(self):
        spc = ComponentCode(np.ones((1, 2), dtype=np.uint8))
        g = TannerGraph(n=4, cns=[[0, 1], [2, 3], [0, 1], [2, 3]], component=spc)
        expected = np.array([[1, 1, 0, 0], [0, 0, 1, 1],
                             [1, 1, 0, 0], [0, 0, 1, 1]], dtype=np.uint8)
        assert np.array_equal(g.flat, expected)

    def test_local_view_definition(self):
        spc = ComponentCode(np.ones((1, 3), dtype=np.uint8))
        x = np.array([10, 11, 12, 13, 14, 15])
        g = TannerGraph(n=6, cns=[[4, 2, 0], [1, 3, 0], [5, 2, 4], [1, 3, 5]],
                        component=spc)
        views = local_views(g, x)
        assert views[0].tolist() == [14, 12, 10]
        assert views[1].tolist() == [11, 13, 10]

    def test_local_view_out_of_range(self):
        g = builtin_code("steane").x_graph
        with pytest.raises(IndexError):
            local_views(g, np.zeros(7))[5]

    def test_local_view_zero(self):
        g = builtin_code("toy-gldpc").x_graph
        assert not local_views(g, np.zeros(15))[1].any()

    def test_scatter_inverse(self):
        rng = np.random.default_rng(0)
        g = random_degree_two_graph(rng)
        x = rng.integers(0, 2, size=g.n, dtype=np.uint8)
        for j, view in enumerate(local_views(g, x)):
            back = np.zeros(g.n, dtype=np.uint8)
            back[g.cns[j]] = view
            assert np.array_equal(back[g.cns[j]], x[g.cns[j]])

    def test_flatten_local_view_consistency_randomized(self):
        # global syndrome restricted to a check equals the component syndrome
        # of its local view
        rng = np.random.default_rng(42)
        for _ in range(1000):
            g = random_degree_two_graph(rng)
            x = rng.integers(0, 2, size=g.n, dtype=np.uint8)
            s_global = g.syndrome(x)
            j = int(rng.integers(g.m))
            local = gf2.Syndrome(g.component.H)(local_views(g, x)[j])
            assert np.array_equal(s_global.reshape(g.m, g.component.m_c)[j], local)


class TestBuiltins:
    def test_steane_parameters(self):
        code = builtin_code("steane")
        assert (code.n, code.k) == (7, 1)

    def test_toy_gldpc_degrees(self):
        code = builtin_code("toy-gldpc")
        for g in (code.x_graph, code.z_graph):
            counts = np.zeros(code.n, dtype=int)
            for cn in g.cns:
                for vn in cn:
                    counts[vn] += 1
            assert (counts == 2).all()

    def test_all_fixtures_css(self):
        for code in builtin_codes():
            assert not ((code.h_x.astype(int) @ code.h_z.T) % 2).any()

    def test_toy_gldpc_multibit_redundancy(self):
        code = builtin_code("toy-gldpc")
        assert code.x_graph.component.m_c > 1

    def test_unknown_builtin(self):
        with pytest.raises(KeyError):
            builtin_code("nope")

    @pytest.mark.parametrize("name", ["toric-1", "toric-0", "toric-x", "toric-", "toric-+3"])
    def test_bad_toric_length(self, name):
        with pytest.raises(KeyError, match="toric-L"):
            builtin_code(name)

    def test_builtin_toric_is_l2(self):
        code = builtin_code("toric")
        assert (code.n, code.d) == (8, 2)

    @pytest.mark.parametrize("L", [8, 12])
    def test_toric_l_matches_shipped_code_file(self, L):
        shipped = load_code(Path(__file__).resolve().parents[1] / "bench" / "codes"
                            / f"toric{L}.json")
        code = builtin_code(f"toric-{L}")
        assert (code.n, code.k, code.d) == (shipped.n, shipped.k, shipped.d)
        for a, b in ((code.x_graph, shipped.x_graph), (code.z_graph, shipped.z_graph)):
            assert a.cns == b.cns
            assert np.array_equal(a.component.H, b.component.H)
            assert np.array_equal(a.flat, b.flat)
        assert np.array_equal(code.h_x, shipped.h_x)
        assert np.array_equal(code.h_z, shipped.h_z)


class TestValidation:
    def test_css_violation_rejected(self):
        spc = ComponentCode(np.ones((1, 2), dtype=np.uint8))
        xg = TannerGraph(4, [[0, 1], [2, 3], [0, 1], [2, 3]], spc)
        zg = TannerGraph(4, [[0, 2], [1, 3], [0, 2], [1, 3]], spc)
        with pytest.raises(CodeFormatError, match="CSS"):
            GldpcCode(name="bad", n=4, k=0, d=1, x_graph=xg, z_graph=zg)

    def test_degree_violation_rejected(self):
        spc = ComponentCode(np.ones((1, 2), dtype=np.uint8))
        with pytest.raises(CodeFormatError, match="degree"):
            TannerGraph(3, [[0, 1], [1, 2], [0, 1]], spc)

    def test_wrong_k_rejected(self):
        good = builtin_code("steane")
        with pytest.raises(CodeFormatError, match="inconsistent"):
            GldpcCode(name="steane", n=7, k=2, d=3,
                      x_graph=good.x_graph, z_graph=good.z_graph)


class TestFileFormat:
    def test_round_trip_builtin_fixtures(self, tmp_path):
        for code in builtin_codes():
            path = tmp_path / f"{code.name}.json"
            write_code(code, path)
            loaded = load_code(path)
            assert (loaded.name, loaded.n, loaded.k, loaded.d) == \
                   (code.name, code.n, code.k, code.d)
            for a, b in ((loaded.x_graph, code.x_graph),
                         (loaded.z_graph, code.z_graph)):
                assert a.cns == [list(cn) for cn in b.cns]
                assert np.array_equal(a.component.H, b.component.H)

    def test_parse_failure(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(CodeFormatError, match="parse"):
            load_code(path)

    def test_non_utf8_file_is_a_parse_failure(self, tmp_path, capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b'\xff\xfe{"n": 1}')
        with pytest.raises(CodeFormatError, match="parse"):
            load_code(path)
        assert main(["validate", "--code", str(path)]) == 1
        assert capsys.readouterr().out.startswith("INVALID: cannot parse")

    def test_css_violation_in_file(self, tmp_path):
        code = builtin_code("toric")
        path = tmp_path / "toric.json"
        write_code(code, path)
        obj = json.loads(path.read_text())
        obj["z_graph"]["cns"][0] = obj["z_graph"]["cns"][1]  # break CSS + degrees
        path.write_text(json.dumps(obj))
        with pytest.raises(CodeFormatError):
            load_code(path)

    def test_degree_three_in_file(self, tmp_path):
        code = builtin_code("steane")
        path = tmp_path / "steane.json"
        write_code(code, path)
        obj = json.loads(path.read_text())
        obj["x_graph"]["cns"].append(list(range(7)))
        path.write_text(json.dumps(obj))
        with pytest.raises(CodeFormatError, match="degree"):
            load_code(path)

    def test_missing_header_field(self, tmp_path):
        path = tmp_path / "no_k.json"
        path.write_text('{"name": "x", "n": 4, "d": 2}')
        with pytest.raises(CodeFormatError, match="header"):
            load_code(path)
        # a file without a graph fails validation too
        graph = _graph_to_obj(builtin_code("steane").x_graph)
        for present, missing in (("z_graph", "x_graph"), ("x_graph", "z_graph")):
            path.write_text(json.dumps({"name": "t", "n": 7, "k": 1, "d": 3, present: graph}))
            with pytest.raises(CodeFormatError, match=f"missing {missing}"):
                load_code(path)


# (path into a toric-2 code file, bad value, what the error names); each
# value was once coerced (1.5 -> 1, "8" -> 8, 0.7 -> 0) or crashed the loader
BAD_FIELDS = [
    (("x_graph", "component_H", 0, 0), -1, "component entries must be 0 or 1"),
    (("x_graph", "component_H", 0, 0), 3, "component entries must be 0 or 1"),
    (("x_graph", "component_H", 0, 1), 1.5, "component_H entry"),
    (("z_graph", "component_H", 0, 2), True, "component_H entry"),
    (("z_graph", "component_H", 0, 3), "1", "component_H entry"),
    (("n",), "8", "n must be an integer"),
    (("k",), 2.7, "k must be an integer"),
    (("d",), 2.0, "d must be an integer"),
    (("k",), True, "k must be an integer"),
    (("z_graph", "cns", 0, 0), 0.7, "check 0 VN index"),
    (("z_graph", "cns", 1, 2), 5.4, "check 1 VN index"),
    (("x_graph", "cns", 2, 1), "3", "check 2 VN index"),
    (("x_graph", "cns", 3, 0), False, "check 3 VN index"),
    (("name",), 5, "name must be a string"),
    (("name",), None, "name must be a string"),
    (("name",), ["x"], "name must be a string"),
    # a huge n is an edge count mismatch, found before n degree counters exist
    (("n",), 10**30, "degree exactly 2"),
]


def bad_code_file(tmp_path, keys, value):
    path = tmp_path / "bad.json"
    write_code(builtin_code("toric"), path)
    obj = json.loads(path.read_text())
    node = obj
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("keys, value, names", BAD_FIELDS)
class TestStrictFields:
    """A code file holds JSON integers and 0/1 entries; nothing is coerced."""

    def test_load_code_names_the_field(self, tmp_path, keys, value, names):
        with pytest.raises(CodeFormatError, match=names):
            load_code(bad_code_file(tmp_path, keys, value))

    def test_validate_prints_one_invalid_line(self, tmp_path, capsys, keys, value, names):
        assert main(["validate", "--code", bad_code_file(tmp_path, keys, value)]) == 1
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 1 and out.startswith("INVALID: ") and names in out
        assert err == ""

    def test_sim_prints_one_error_line(self, tmp_path, capsys, keys, value, names):
        rc = main(["sim", "--code", bad_code_file(tmp_path, keys, value), "--p", "0.05",
                   "--trials", "2"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("qgldpc sim: error: ")
        assert names in err


@pytest.mark.parametrize("H", [[[1, 2, 1]], [[1, -1, 0]], [[0.5, 1.0, 0.0]]])
def test_component_entries_outside_0_1_rejected(H):
    with pytest.raises(CodeFormatError, match="0 or 1"):
        ComponentCode(np.array(H))


@pytest.mark.parametrize("H, other, equal", [
    ([[1, 0, 1], [0, 1, 1]], np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int64), True),
    ([[1, 1, 1, 1]], [[1, 1], [1, 1]], False),          # the same bytes in another shape
    ([[1, 0, 1], [0, 1, 1]], [[1, 0, 1], [1, 1, 0]], False),  # one shape, other bits
    # a transposed view: H is not C-contiguous, its bytes are read in C order
    ([[1, 0, 1], [0, 1, 1]], np.array([[1, 0], [0, 1], [1, 1]], dtype=np.uint8).T, True),
])
def test_component_codes_compare_and_hash_by_value(H, other, equal):
    a, b = ComponentCode(H), ComponentCode(other)
    assert (a == b) is equal and (a != b) is not equal
    assert (hash(a) == hash(b)) if equal else len({a, b}) == 2
    assert a != a.H  # never equal to its bare matrix


class TestLogicals:
    """Logical operators by brute force: the vectors of one side's kernel
    outside the other side's stabilizer space (``hz_space``, ``hx_space``),
    which the harness's success check tests residuals against."""

    def test_steane_single_logical_pair(self):
        code = builtin_code("steane")
        ones = np.ones(7, dtype=np.uint8)
        for ker, stabilizers in kernels_and_stabilizers(code):
            logicals = ker[~stabilizers.contains(ker)]
            # all-ones is a representative: every logical is all-ones times a stabilizer
            assert len(logicals) and not stabilizers.contains(ones)
            assert stabilizers.contains(logicals ^ ones).all()

    def test_zero_k_code_empty_basis(self):
        # [[4,0]] code: both sides the full extended-Hamming-style rowspace
        H = np.array([[1, 1, 1, 1], [1, 1, 0, 0]], dtype=np.uint8)
        comp = ComponentCode(H)
        g1 = TannerGraph(4, [[0, 1, 2, 3], [0, 1, 2, 3]], comp)
        code = GldpcCode(name="k0", n=4, k=0, d=1, x_graph=g1,
                         z_graph=TannerGraph(4, [[0, 1, 2, 3], [0, 1, 2, 3]], comp))
        for ker, stabilizers in kernels_and_stabilizers(code):
            assert stabilizers.contains(ker).all()

    @pytest.mark.parametrize("name", ["steane", "toy-gldpc", "toric-2", "toric-3", "toric-4"])
    def test_declared_distance_is_the_least_logical_weight(self, name):
        # d is declared, not computed on load: here it is the least weight of a vector
        # in one side's kernel outside the other side's stabilizer space, found by
        # enumerating the patterns of weight 1, 2, ... until one is a logical
        code = builtin_code(name)

        def least_logical(check, stabilizers):
            for w in range(1, code.n + 1):
                support = np.array(list(itertools.combinations(range(code.n), w)))
                pats = np.zeros((len(support), code.n), np.uint8)
                pats[np.arange(len(support))[:, None], support] = 1
                ker = pats[~check(pats).any(axis=1)]
                if not stabilizers.contains(ker).all():
                    return w
        z_least = least_logical(code.x_graph.syndrome, code.hz_space)  # Z logicals
        x_least = least_logical(code.z_graph.syndrome, code.hx_space)  # X logicals
        assert min(z_least, x_least) == code.d

    def test_logicals_satisfy_postconditions(self):
        # each kernel holds its 2^rank stabilizers and 2^k cosets of them
        for code in builtin_codes():
            for ker, stabilizers in kernels_and_stabilizers(code):
                assert len(ker) == 2 ** (code.k + stabilizers.rank)
                assert stabilizers.contains(ker).sum() == 2 ** stabilizers.rank

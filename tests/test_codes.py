import json

import numpy as np
import pytest

from qgldpc import gf2
from qgldpc.codes import (CodeFormatError, ComponentCode, GldpcCode, TannerGraph,
                          builtin_code, builtin_codes, compute_logicals, flatten,
                          load_code, write_code)


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


class TestFlattenAndLocalView:
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


class TestLogicals:
    def test_steane_single_logical_pair(self):
        code = builtin_code("steane")
        basis = compute_logicals(code)
        assert len(basis.z_logicals) == 1 and len(basis.x_logicals) == 1
        # all-ones is a valid representative modulo the stabilizers
        stacked = np.vstack([code.h_z, basis.z_logicals[0]])
        assert gf2.RowSpace(stacked).contains(np.ones(7, dtype=np.uint8))

    def test_zero_k_code_empty_basis(self):
        # [[4,0]] code: both sides the full extended-Hamming-style rowspace
        H = np.array([[1, 1, 1, 1], [1, 1, 0, 0]], dtype=np.uint8)
        comp = ComponentCode(H)
        g1 = TannerGraph(4, [[0, 1, 2, 3], [0, 1, 2, 3]], comp)
        code = GldpcCode(name="k0", n=4, k=0, d=1, x_graph=g1,
                         z_graph=TannerGraph(4, [[0, 1, 2, 3], [0, 1, 2, 3]], comp))
        basis = compute_logicals(code)
        assert basis.z_logicals == [] and basis.x_logicals == []

    def test_logicals_satisfy_postconditions(self):
        for name in ("steane", "toric", "toy-gldpc"):
            code = builtin_code(name)
            basis = compute_logicals(code)
            assert len(basis.z_logicals) == code.k
            for l in basis.z_logicals:
                assert not code.x_graph.syndrome(l).any()
                assert not gf2.RowSpace(code.h_z).contains(l)
            for l in basis.x_logicals:
                assert not code.z_graph.syndrome(l).any()
                assert not gf2.RowSpace(code.h_x).contains(l)

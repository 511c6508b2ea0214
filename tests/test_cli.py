"""Command-line behavior: dispatch, JSON output, exit codes, stability."""

import copy
import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import DATA, load_json
from torilat.cli import COMMANDS, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def problem_path(name):
    return str(DATA / name)


class TestParameterize:
    def test_h2(self, capsys):
        code, out, err = run(capsys, "parameterize", problem_path("h2_q11.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["num_points"] == 50
        assert len(doc["A"]) == 4
        assert "50 torus points" in err

    def test_p113(self, capsys):
        # the two relations reduce to s2 = s4 (mod 2): half of the
        # 1000-point torus
        code, out, _ = run(capsys, "parameterize", problem_path("p113_q11.json"))
        assert code == 0
        assert json.loads(out)["num_points"] == 500

    def test_lattice_spanned_by_more_than_r_rows(self, capsys, tmp_path):
        # five spanning rows (one zero, one repeated) of a rank-2 lattice
        # on the four rays of H_2: a spanning set may outnumber r
        doc = load_json("h2_q11.json")
        doc["task"]["lattice"] = [[10, 0, -10, 0], [20, 10, 0, -10],
                                  [0, 0, 0, 0], [10, 0, -10, 0],
                                  [30, 10, -10, -10]]
        f = tmp_path / "five_rows.json"
        f.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "parameterize", str(f))
        assert code == 0
        params = json.loads(out)
        assert len(params["A"]) == 4 and len(params["A"][0]) == 4
        code, out, _ = run(capsys, "subgroup-info", str(f))
        assert code == 0
        assert params["num_points"] == json.loads(out)["order"] == 100


class TestDegenerateLattice:
    def test_a2455(self, capsys):
        code, out, err = run(
            capsys, "degenerate-lattice", problem_path("h2_a2455.json")
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["D"] == [5, 2, 5, 2]
        assert [g["text"] for g in doc["generators"]] == [
            "x1^5 - x3^5",
            "x1^20*x2^10 - x4^10",
        ]
        assert doc["complete_intersection"] is True
        assert "complete intersection: True" in err


class TestCiCheck:
    def test_published_matrix(self, capsys):
        code, out, _ = run(capsys, "ci-check", problem_path("ci_8x2.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "mixed": True,
            "dominating": False,
            "complete_intersection": False,
        }


def path_incidence(n):
    """(n+1) x n incidence matrix of a directed path: mixed dominating."""
    return [[(i == j) - (i == j + 1) for j in range(n)] for i in range(n + 1)]


class TestDominatingScale:
    """The row-subset test answers where the submatrix scan ran for hours,
    and exits 3 before a level that would pass its cap."""

    def ci_check(self, capsys, tmp_path, gamma):
        # a document lists the basis as rows: the columns of gamma
        f = tmp_path / "gamma.json"
        f.write_text(json.dumps({"task": {"matrix": [list(c) for c in zip(*gamma)]}}))
        code, out, err = run(capsys, "ci-check", str(f))
        assert "Traceback" not in err
        return code, out, err

    def test_path_17x16_is_dominating(self, capsys, tmp_path):
        code, out, _ = self.ci_check(capsys, tmp_path, path_incidence(16))
        assert code == 0
        assert json.loads(out) == {"mixed": True, "dominating": True, "complete_intersection": True}

    def test_path_21x20_exits_3(self, capsys, tmp_path):
        code, out, err = self.ci_check(capsys, tmp_path, path_incidence(20))
        assert code == 3
        assert out == ""
        assert "row subsets" in err

    def test_tall_30x2_answers(self, capsys, tmp_path):
        code, out, _ = self.ci_check(capsys, tmp_path, path_incidence(2) + [[0, 0]] * 27)
        assert code == 0
        assert json.loads(out) == {"mixed": True, "dominating": True, "complete_intersection": True}

    def test_small_witness_in_25x25_answers(self, capsys, tmp_path):
        # a 25-cycle, every column mixed, with [[1, -1], [-1, 1]] on rows
        # and columns {0, 1}: all levels would pass the cap, level 2 does not
        gamma = [[(i == j) - (i == (j + 1) % 25) for j in range(25)] for i in range(25)]
        gamma[0][1] = -1
        code, out, _ = self.ci_check(capsys, tmp_path, gamma)
        assert code == 0
        assert json.loads(out) == {"mixed": True, "dominating": False, "complete_intersection": False}


class TestTorusIdeal:
    def test_h2(self, capsys):
        code, out, _ = run(capsys, "torus-ideal", problem_path("h2_q11.json"))
        assert code == 0
        texts = [g["text"] for g in json.loads(out)["generators"]]
        assert texts == ["x1^10 - x3^10", "x2^10*x3^20 - x4^10"]


class TestSubgroupInfo:
    def test_order50(self, capsys):
        code, out, _ = run(
            capsys, "subgroup-info", problem_path("h2_a2455.json")
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["order"] == 50
        assert doc["invariant_factors"] == [5, 10]


class TestCode:
    def test_published_code(self, capsys):
        code, out, _ = run(
            capsys, "code", problem_path("h2_a2455.json"), "--alpha", "5,10"
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["N"], doc["k"]) == (50, 50)

    def test_with_min_distance(self, capsys):
        code, out, _ = run(
            capsys,
            "code",
            problem_path("h2_a5254.json"),
            "--alpha",
            "0,1",
            "--min-distance",
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["N"], doc["k"]) == (10, 3)
        assert doc["d"] is not None

    def test_cap_is_soft_for_code_distance(self, capsys):
        code, out, _ = run(
            capsys,
            "code",
            problem_path("h2_a2455.json"),
            "--min-distance",
            "--cap",
            "10",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["d"] is None
        assert "cap" in doc["note"]

    def test_negative_cap_exits_2(self, capsys):
        code, out, err = run(
            capsys,
            "code",
            problem_path("h2_a5254.json"),
            "--min-distance",
            "--cap",
            "-1",
        )
        assert code == 2
        assert out == ""
        assert err == "error: message cap must be nonnegative, got -1\n"

    def test_search_past_the_index_limit_exits_3(self, capsys):
        # k = 50 over F_11: about 1.2 * 10^51 projective messages, under a
        # 61-digit cap but past the 2^62 the search can index
        code, out, err = run(
            capsys,
            "code",
            problem_path("h2_a2455.json"),
            "--alpha",
            "5,10",
            "--min-distance",
            "--cap",
            "1" + "0" * 60,
        )
        assert code == 3
        assert out == ""
        assert err == (
            "error: minimum distance needs (11^50 - 1)/10 projective messages, "
            "more than the search limit 2^62\n"
        )


class TestHilbertTable:
    def test_published_table(self, capsys):
        code, out, _ = run(
            capsys, "hilbert-table", problem_path("h2_a5254.json")
        )
        assert code == 0
        doc = json.loads(out)
        with open(DATA / "hilbert_table_6x18.json") as fh:
            fixture = json.load(fh)
        assert doc["grid"] == fixture["grid"]


class TestPointIdeal:
    def test_generator_count_and_vanishing(self, capsys, tmp_path):
        doc = {
            "variety": {
                "rays": [[1, 0], [0, 1], [-1, 2], [0, -1]],
                "beta": [[1, -2, 1, 0], [0, 1, 0, 1]],
            },
            "field": {"q": 11},
            "task": {"point": [1, 2, 3, 4]},
        }
        f = tmp_path / "pt.json"
        f.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "point-ideal", str(f))
        assert code == 0
        doc = json.loads(out)
        assert len(doc["generators"]) == 2
        assert all("scale" in g for g in doc["generators"])


class TestOutputsAndErrors:
    def test_byte_stable_output(self, capsys, tmp_path):
        f1 = tmp_path / "a.json"
        f2 = tmp_path / "b.json"
        assert (
            main(["degenerate-lattice", problem_path("h2_a2455.json"), "--out", str(f1)])
            == 0
        )
        assert (
            main(["degenerate-lattice", problem_path("h2_a2455.json"), "--out", str(f2)])
            == 0
        )
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "code", "/nonexistent.json")
        assert code == 2
        assert "cannot read" in err

    @pytest.mark.parametrize("data", [b"\xff\xfe{}", b"[" * 100_000],
                             ids=["not_utf8", "nested_100000"])
    def test_unreadable_document_exits_2(self, capsys, tmp_path, data):
        # undecodable bytes and nesting past the recursion limit
        f = tmp_path / "doc.json"
        f.write_bytes(data)
        code, out, err = run(capsys, "torus-ideal", str(f))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read problem document: ")
        assert "Traceback" not in err

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="no limit on str-to-int conversion",
    )
    def test_integer_past_the_digit_limit_exits_2(self, capsys, tmp_path):
        f = tmp_path / "long_q.json"
        text = json.dumps(H2_DOC).replace('"q": 11', '"q": 1' + "0" * 4999)
        assert len(text) > 5000
        f.write_text(text)
        code, out, err = run(capsys, "torus-ideal", str(f))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read problem document: ")

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.json"
        code, out, err = run(
            capsys, "torus-ideal", problem_path("h2_q11.json"), "--out", str(target)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write result: ")
        assert not target.exists()

    def test_validation_error_exit_2(self, capsys, tmp_path):
        doc = {
            "variety": {"beta": [[1, 1, 1, 3]]},
            "field": {"q": 11},
            "task": {"lattice": [[1, 0, 0, 0]]},
        }
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        code, _, err = run(capsys, "parameterize", str(f))
        assert code == 2
        assert "homogeneous" in err

    def test_cap_exceeded_exit_3(self, capsys, tmp_path):
        doc = {
            "variety": {"beta": [[1, 1, 1, 3]]},
            "field": {"q": 1009},
            "task": {"lattice": []},
        }
        f = tmp_path / "big.json"
        f.write_text(json.dumps(doc))
        code, _, err = run(capsys, "parameterize", str(f))
        assert code == 3
        assert "cap" in err.lower()

    def test_composite_q_exit_2(self, capsys, tmp_path):
        doc = {"variety": {"beta": [[1, 1]]}, "field": {"q": 9}, "task": {}}
        f = tmp_path / "composite.json"
        f.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "torus-ideal", str(f))
        assert code == 2


H2_DOC = {
    "variety": {
        "rays": [[1, 0], [0, 1], [-1, 2], [0, -1]],
        "beta": [[1, -2, 1, 0], [0, 1, 0, 1]],
    },
    "field": {"q": 11},
    "task": {"a": [2, 5, 4, 5], "h": 10, "alpha": [5, 10]},
}


def with_leaf(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "command",
    ["code", "degenerate-lattice", "parameterize", "subgroup-info",
     "torus-ideal"],
)
def test_dependent_beta_exits_2(capsys, tmp_path, command):
    # the third row of beta is the sum of the first two
    doc = with_leaf(H2_DOC, ["variety", "beta"],
                    [[1, -2, 1, 0], [0, 1, 0, 1], [1, -1, 1, 1]])
    doc["task"]["lattice"] = [[10, 0, -10, 0], [0, 5, 10, -5]]
    f = tmp_path / "dependent_beta.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(f))
    assert (code, out, err) == (2, "", "error: beta rows are dependent\n")


@pytest.mark.parametrize("alpha", ["5,10", "10,10"])
def test_beta_not_onto_exits_2(capsys, tmp_path, alpha):
    # ker(beta) = im(phi) with independent rows, but beta(Z^4) has index 2
    # in Z^2: a degree off the image used to give a silent k = 0 code
    doc = with_leaf(load_json("h2_q11.json"), ["variety", "beta"],
                    [[2, -4, 2, 0], [0, 1, 0, 1]])
    f = tmp_path / "h2_q11.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(capsys, "code", str(f), "--alpha", alpha)
    assert (code, out, err) == (2, "", "error: beta does not map onto Z^k\n")


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("rays", [[[1], [-1]], [[1, 1], [1, -1]]])
def test_rays_with_no_beta_rows_exit_2(capsys, tmp_path, command, rays):
    # with no rows ker(beta) = Z^r: rank 1 < r = 2 for the first rays,
    # det phi = -2 for the second, so neither phi maps onto it
    doc = {"variety": {"rays": rays, "beta": []}, "field": {"q": 7},
           "task": {"a": [1, 1], "h": 6, "alpha": [], "point": [1, 1],
                    "lattice": [[6, 6]], "matrix": [[1, -1]],
                    "alpha1_values": [0], "alpha2_values": [0]}}
    f = tmp_path / "no_beta_rows.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(f))
    assert (code, out, err) == (2, "", "error: ker(beta) != im(phi)\n")


def test_unimodular_rays_with_no_beta_rows(capsys, tmp_path):
    f = tmp_path / "square.json"
    f.write_text(json.dumps({"variety": {"rays": [[1, 0], [0, 1]], "beta": []},
                             "field": {"q": 7}}))
    code, _, _ = run(capsys, "torus-ideal", str(f))
    assert code == 0


class TestInputContract:
    """Every malformed document exits 2 with a message, never a traceback."""

    @pytest.mark.parametrize(
        "command, doc, extra, message",
        [
            ("subgroup-info", with_leaf(H2_DOC, ["task", "h"], "x"), [],
             "task.h must be an integer"),
            ("code", H2_DOC, ["--alpha", "5,x"], "--alpha"),
            ("point-ideal", with_leaf(H2_DOC, ["task", "point"], [1, "a", 0, 0]),
             [], "task.point"),
            ("torus-ideal", with_leaf(H2_DOC, ["variety", "rays", 0, 0], 1.5), [],
             "variety.rays"),
            ("subgroup-info", [H2_DOC], [], "must be a JSON object"),
            ("torus-ideal", with_leaf(H2_DOC, ["field", "q"], True), [],
             "field.q"),
            ("torus-ideal", with_leaf(H2_DOC, ["field", "q"], 11.0), [],
             "field.q"),
            ("code", with_leaf(H2_DOC, ["task", "alpha"], [5, "10"]), [],
             "task.alpha"),
            ("subgroup-info", with_leaf(H2_DOC, ["task", "a", 2], False), [],
             "task.a"),
            ("torus-ideal", with_leaf(H2_DOC, ["variety", "beta"], [1, -2]), [],
             "variety.beta"),
            ("torus-ideal", with_leaf(H2_DOC, ["task"], [1]), [], "'task'"),
        ],
        ids=["h_str", "alpha_flag", "point_str", "float_ray", "top_level_list",
             "q_bool", "q_float", "alpha_str", "a_bool", "beta_flat",
             "task_list"],
    )
    def test_exit_2(self, capsys, tmp_path, command, doc, extra, message):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, str(f), *extra)
        assert code == 2
        assert out == ""
        assert message in err

    @given(
        st.sampled_from(["h2_a2455.json", "h2_a5254.json", "h2_q11.json",
                         "p113_q11.json", "ci_8x2.json",
                         "hilbert_table_6x18.json"]),
        st.data(),
        st.sampled_from(sorted(COMMANDS)),
    )
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_one_non_integer_leaf(self, capsys, tmp_path, name, data, command):
        doc = load_json(name)
        leaves = []

        def walk(node, path):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for key, value in items:
                if isinstance(value, (dict, list)):
                    walk(value, path + [key])
                else:
                    leaves.append(path + [key])

        walk(doc, [])
        path = data.draw(st.sampled_from(leaves))
        value = data.draw(st.sampled_from([1.5, 2.0, "x", "3", True, None, [], {}]))
        f = tmp_path / "fuzz.json"
        f.write_text(json.dumps(with_leaf(doc, path, value)))
        code = main([command, str(f)])
        capsys.readouterr()
        assert code in (0, 2, 3, 4)


class TestFieldSizeCap:
    def test_q_above_cap_exits_3(self, capsys, tmp_path):
        f = tmp_path / "bigq.json"
        f.write_text(json.dumps(with_leaf(H2_DOC, ["field", "q"], 2**31 - 1)))
        code, out, err = run(capsys, "torus-ideal", str(f))
        assert code == 3
        assert out == ""
        assert "cap" in err


class TestMonomialSearchCap:
    def test_huge_degree_exits_3(self, capsys, tmp_path):
        doc = load_json("h2_a5254.json")
        doc["task"]["alpha1_values"][0] = 10**6
        f = tmp_path / "huge_degree.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, "hilbert-table", str(f))
        assert code == 3
        assert out == ""
        assert "monomial search" in err


EMPTY_FAN_DOC = {
    "variety": {"rays": []},
    "field": {"q": 7},
    "task": {"a": [], "h": 6, "alpha": [], "point": [], "alpha1_values": [0, 1],
             "alpha2_values": [0], "lattice": [], "generators": []},
}


class TestEmptyFan:
    """No rays: n = r = 0, and T_X is the one-point torus."""

    @pytest.fixture
    def path(self, tmp_path):
        f = tmp_path / "empty_fan.json"
        f.write_text(json.dumps(EMPTY_FAN_DOC))
        return str(f)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_command_exits_cleanly(self, capsys, path, command):
        code, _, err = run(capsys, command, path)
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err

    def test_parameterize_gives_one_point(self, capsys, path):
        code, out, _ = run(capsys, "parameterize", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["num_points"] == 1
        assert doc["points"] == [[]]

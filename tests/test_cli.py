"""Command-line behavior: dispatch, JSON output, exit codes, stability."""

import copy
import json
import sys
from math import prod

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import DATA, load_json
from torilat import grading, lattice
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

    def test_generators_need_no_rank_check(self, capsys, monkeypatch):
        path = problem_path("h2_a2455.json")
        before = run(capsys, "degenerate-lattice", path)
        assert before[0] == 0

        def refuse(L):
            raise AssertionError("lattice_ideal_generators was called")

        monkeypatch.setattr(lattice, "lattice_ideal_generators", refuse)
        assert run(capsys, "degenerate-lattice", path) == before


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

    @pytest.mark.xfail(strict=True, reason="the basis binomials generate I(T_X) "
                       "only for some coordinates of the rays")
    def test_rays_in_other_coordinates(self, capsys, tmp_path):
        # P^2 with rays (1,1), (0,1), (-1,-2), a unimodular change of
        # (1,0), (0,1), (-1,-1): it prints x1^6 - x3^6 and
        # x1^6*x2^6 - x3^12, which both vanish at (0, 1, 0), where
        # x2^6 - x3^6, which vanishes on T_X, does not
        f = tmp_path / "p2_other_coordinates.json"
        f.write_text(json.dumps({"variety": {"rays": [[1, 1], [0, 1], [-1, -2]]},
                                 "field": {"q": 7}}))
        code, out, _ = run(capsys, "torus-ideal", str(f))
        assert code == 0
        point = (0, 1, 0)

        def value(m):
            return (prod(p ** max(e, 0) for p, e in zip(point, m))
                    - prod(p ** max(-e, 0) for p, e in zip(point, m)))

        assert any(value(g["m"]) for g in json.loads(out)["generators"])


def p2_torus(tmp_path, q):
    """The whole P^2 torus over F_q, its grading built from the rays alone."""
    f = tmp_path / f"p2_q{q}.json"
    f.write_text(json.dumps({"variety": {"rays": [[1, 0], [0, 1], [-1, -1]]},
                             "field": {"q": q}, "task": {"a": [1, 1, 1]}}))
    return str(f)


class TestProjectivePlaneTorus:
    def test_torus_ideal(self, capsys, tmp_path):
        code, out, _ = run(capsys, "torus-ideal", p2_torus(tmp_path, 7))
        assert code == 0
        texts = [g["text"] for g in json.loads(out)["generators"]]
        assert texts == ["x1^6 - x3^6", "x2^6 - x3^6"]

    @pytest.mark.parametrize("q", [97, 257])
    def test_degree_1_distance(self, capsys, tmp_path, q):
        # d = (q-1)(q-2) by the closed form of Sarmiento, Vaz Pinto and
        # Villarreal; at q = 257 the residues need 16 bits and the zero
        # counts of N = 2^16 columns more
        code, out, _ = run(capsys, "code", p2_torus(tmp_path, q), "--alpha", "1",
                           "--min-distance")
        assert code == 0
        doc = json.loads(out)
        assert (doc["N"], doc["k"], doc["d"]) == ((q - 1) ** 2, 3, (q - 1) * (q - 2))

    def test_999982_squared_points(self, capsys, tmp_path):
        # the order, the structure and k need no point; a distance search
        # lists them and meets the 10^6-point cap
        path = p2_torus(tmp_path, 999983)
        code, out, _ = run(capsys, "subgroup-info", path)
        assert code == 0
        doc = json.loads(out)
        assert (doc["order"], doc["invariant_factors"]) == (999982**2, [999982, 999982])
        code, out, _ = run(capsys, "code", path, "--alpha", "2")
        assert code == 0
        doc = json.loads(out)
        assert (doc["N"], doc["k"]) == (999982**2, 6)
        code, out, err = run(capsys, "code", path, "--alpha", "0", "--min-distance")
        assert (code, out) == (3, "")
        assert err == f"error: subgroup has {999982**2} points, cap is 1000000\n"


class TestSubgroupInfo:
    def test_order50(self, capsys):
        code, out, _ = run(
            capsys, "subgroup-info", problem_path("h2_a2455.json")
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["order"] == 50
        assert doc["invariant_factors"] == [5, 10]
        assert doc["generators"] == [[2, 0, 0, 0], [0, 1, 0, 0]]

    def test_printed_generators_give_the_subgroup_back(self, capsys, tmp_path):
        doc = load_json("h2_a2455.json")
        doc["task"] = {"generators": [[2, 0, 0, 0], [0, 1, 0, 0]]}
        f = tmp_path / "generators.json"
        f.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "subgroup-info", str(f))
        assert code == 0
        doc = json.loads(out)
        assert (doc["order"], doc["invariant_factors"]) == (50, [5, 10])


class TestCode:
    def test_published_code(self, capsys):
        code, out, _ = run(
            capsys, "code", problem_path("h2_a2455.json"), "--alpha", "5,10"
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["N"], doc["k"]) == (50, 50)

    @pytest.mark.parametrize("alpha, params", [("0,1", (50, 4, 30)),
                                               ("1,1", (50, 6, 20))])
    def test_published_distance(self, capsys, alpha, params):
        code, out, _ = run(capsys, "code", problem_path("h2_a2455.json"),
                           "--alpha", alpha, "--min-distance")
        assert code == 0
        doc = json.loads(out)
        assert (doc["N"], doc["k"], doc["d"]) == params

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
        # one shifted binomial per column of phi, scaled by x^m(P)
        assert doc["point_canonical"] == [8, 4]
        assert [(g["m"], g["scale"]) for g in doc["generators"]] == [
            ([1, 0, -1, 0], 3), ([0, 1, 2, -1], 5)]


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
        # the whole 1008^3-point torus: its count needs no point listed
        code, out, _ = run(capsys, "parameterize", str(f))
        assert code == 0
        result = json.loads(out)
        assert (result["num_points"], result["points"]) == (1008**3, None)
        # k = 1, so only the point cap stops the distance search
        code, out, err = run(capsys, "code", str(f), "--alpha", "0", "--min-distance")
        assert (code, out) == (3, "")
        assert err == f"error: subgroup has {1008**3} points, cap is 1000000\n"

    def test_failed_functional_check_exit_4(self, capsys, monkeypatch):
        monkeypatch.setattr(grading, "_phase_one", lambda beta: ([-1] * len(beta), None))
        code, out, err = run(capsys, "degenerate-lattice", problem_path("h2_a2455.json"))
        assert (code, out) == (4, "")
        assert err == "internal error: positive functional verification failed\n"

    def test_failed_monomial_check_exit_4(self, capsys, monkeypatch):
        # x1 has degree (1, 0), not 0
        monkeypatch.setattr(grading, "_phase_one", lambda beta: (None, [1, 0, 0, 0]))
        code, out, err = run(capsys, "degenerate-lattice", problem_path("h2_a2455.json"))
        assert (code, out) == (4, "")
        assert err == "internal error: degree-zero monomial verification failed\n"

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


# the third ray is zero
ZERO_RAY = [[1, 0], [0, 1], [0, 0], [-1, -1]]


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


@pytest.mark.parametrize("beta, q, a, h, order", [
    ([[2, 3, -3]], 211, [70, 210, 210], 210, 1),
    ([[2, 3, 6]], 31, [10, 15, 6], 30, 5),
])
def test_rays_that_are_not_primitive(capsys, tmp_path, beta, q, a, h, order):
    # beta = (2, 3, -3) gives the ray (0, 3): the order-3 subgroup of its
    # coordinate is the identity of T_X, so d = (3, 1, 1) gives one point
    f = tmp_path / "beta.json"
    f.write_text(json.dumps({"variety": {"beta": beta}, "field": {"q": q},
                             "task": {"a": a, "h": h}}))
    code, out, _ = run(capsys, "subgroup-info", str(f))
    assert code == 0
    assert json.loads(out)["order"] == order
    if order > 1:  # (2, 3, -3) is not pointed, so it has no code
        code, out, _ = run(capsys, "code", str(f), "--alpha", "1")
        assert code == 0
        assert json.loads(out)["N"] == order


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
            # a row of no coordinates once vanished in the transpose
            ("ci-check", {"task": {"matrix": [[]]}}, [], "must not be empty"),
            ("torus-ideal", {"variety": {}, "field": {"q": 7}}, [],
             "variety needs either 'rays' or 'beta'"),
            ("torus-ideal", with_leaf(H2_DOC, ["variety", "max_cones"], [[0, 4]]),
             [], "cone ray index out of range"),
            # the document gives no rays: name the coordinate with none
            ("torus-ideal", {"variety": {"beta": [[1, 0, 0], [0, 1, 1]]},
                             "field": {"q": 7}}, [],
             "coordinate 1 vanishes on ker(beta): x1 has no ray"),
            ("subgroup-info", with_leaf(H2_DOC, ["task"], {}), [],
             "task needs one of 'a', 'lattice', 'generators'"),
            ("subgroup-info", with_leaf(H2_DOC, ["task"], {"lattice": [[10, 0, -10]]}),
             [], "lattice rows must have length 4"),
            ("subgroup-info", with_leaf(H2_DOC, ["task"], {"generators": [[1, 2]]}),
             [], "generators rows must have length 4"),
            ("code", with_leaf(H2_DOC, ["task"], {"a": [2, 5, 4, 5], "h": 10}), [],
             "no degree given (task 'alpha' or --alpha)"),
            ("code", H2_DOC, ["--alpha", "5"], "degree must have 2 coordinates"),
            ("degenerate-lattice", with_leaf(H2_DOC, ["task"], {}), [],
             "degenerate-lattice needs the exponent vector 'a'"),
            ("hilbert-table", with_leaf(H2_DOC, ["task", "alpha1_values"], [0]), [],
             "hilbert-table needs 'alpha2_values' in the task"),
            ("point-ideal", H2_DOC, [], "point-ideal needs an exponent vector 'point'"),
            ("torus-ideal", with_leaf(H2_DOC, ["variety", "beta"],
                                      [[1, -2, 1], [0, 1, 0]]), [],
             "beta row length != r"),
            ("torus-ideal", {"variety": {"rays": ZERO_RAY}, "field": {"q": 7}}, [],
             "zero ray vector"),
            ("torus-ideal", {"variety": {"rays": ZERO_RAY,
                                         "beta": [[1, 1, 0, 1], [0, 0, 1, 0]]},
                             "field": {"q": 7}}, [],
             "zero ray vector"),
            ("torus-ideal", {"variety": {"rays": [[1, 0], [-1, 0]]},
                             "field": {"q": 7}}, [],
             "rays do not span Q^n"),
            ("torus-ideal", {"variety": {"rays": [[1, 0], [-1, 0], [1, 0]],
                                         "beta": [[1, 1, 0], [0, 1, 1]]},
                             "field": {"q": 7}}, [],
             "rays do not span Q^n"),
            # fewer rays than the ambient dimension
            ("torus-ideal", {"variety": {"rays": [[1, 0]]}, "field": {"q": 7}}, [],
             "rays do not span Q^n"),
        ],
        ids=["h_str", "alpha_flag", "point_str", "float_ray", "top_level_list",
             "q_bool", "q_float", "alpha_str", "a_bool", "beta_flat",
             "task_list", "ci_empty_row", "no_rays_or_beta", "cone_index",
             "beta_zero_coordinate", "no_point_set", "lattice_width",
             "generators_width", "no_degree", "degree_length", "no_a",
             "no_alpha2_values", "no_point", "beta_short_rows",
             "zero_ray", "zero_ray_with_beta", "rays_on_a_line",
             "rays_on_a_line_with_beta", "one_ray"],
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

    def test_saturated_cell_past_the_cap(self, capsys, tmp_path, monkeypatch):
        # at a cap of 2,300, (33, 33) (work 2,313) is past it, but follows
        # from (32, 33) (work 2,279), whose value is already |Y| = 50: the
        # table gives it exactly
        monkeypatch.setattr(grading, "MONOMIAL_SEARCH_CAP", 2300)
        doc = load_json("h2_q11.json")
        doc["task"].update(alpha1_values=[32, 33], alpha2_values=[33])
        f = tmp_path / "saturated.json"
        f.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "hilbert-table", str(f))
        assert code == 0
        assert json.loads(out)["grid"] == [[50, 50]]
        code, out, err = run(capsys, "code", problem_path("h2_q11.json"),
                             "--alpha", "33,33")
        assert code == 3
        assert out == ""
        assert "monomial search" in err

    def test_both_sides_of_the_cap(self, capsys):
        # (33, 33) walks 35 nodes for 2,278 monomials; (2000, 2000) has
        # 8,006,001 monomials, past the cap of 5 * 10^6
        path = problem_path("h2_q11.json")
        code, out, _ = run(capsys, "code", path, "--alpha", "33,33")
        doc = json.loads(out)
        assert (code, doc["N"], doc["k"]) == (0, 50, 50)
        code, out, err = run(capsys, "code", path, "--alpha", "2000,2000")
        assert (code, out) == (3, "")
        assert err.startswith("error: monomial search passed 5000000 ")


@pytest.mark.parametrize("W, q, g", [(10**12, 999983, 499991), (10**21, 11, 5)],
                         ids=["w1e12", "w1e21"])
def test_huge_exponents_are_reduced_exactly(capsys, tmp_path, W, q, g):
    # P(W, W + 1, 1) at degree 30 W + 5 on the subgroup of order 2 that
    # [0, 0, g] generates: the exponents of x3 reach 30 W + 5, and their
    # labels and the evaluation of the two classes stay exact (once k = 4
    # at W = 10^12, and OverflowError at W = 10^21)
    f = tmp_path / "huge_weights.json"
    f.write_text(json.dumps({"variety": {"beta": [[W, W + 1, 1]]},
                             "field": {"q": q},
                             "task": {"generators": [[0, 0, g]]}}))
    code, out, _ = run(capsys, "code", str(f), "--alpha", str(30 * W + 5),
                       "--min-distance")
    doc = json.loads(out)
    assert (code, doc["N"], doc["k"], doc["d"]) == (0, 2, 2, 1)
    assert doc["F0"] == [0, 0, 30 * W + 5]


@pytest.mark.parametrize("command", ["code", "degenerate-lattice"])
def test_unpointed_k6_exits_2(capsys, command):
    # a Fourier-Motzkin elimination of these 12 columns would hold about
    # 4.5 * 10^9 constraints at its last level; both commands name the
    # monomial of degree 0 that the LP finds
    code, out, err = run(capsys, command, problem_path("unpointed_k6.json"))
    assert (code, out) == (2, "")
    assert err == ("error: grading is not pointed: x1^26*x2^9*x3^76*x4^177*"
                   "x6^187*x7^66*x8^25 has degree 0\n")


def test_pointed_k5_answers(capsys):
    # w = (26, 19, -28, 6, -28) is positive on every column, though no
    # row of beta is
    path = problem_path("pointed_k5.json")
    code, out, _ = run(capsys, "code", path, "--alpha", "1,0,0,0,0")
    doc = json.loads(out)
    assert (code, doc["N"], doc["k"]) == (0, 10**5, 0)
    code, out, _ = run(capsys, "degenerate-lattice", path)
    assert (code, json.loads(out)["D"]) == (0, [10] * 10)


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

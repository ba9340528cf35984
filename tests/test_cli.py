import json
import math
import sys
import time
import tracemalloc

import pytest

from freeconv import cli, convolve, measures, verify
from freeconv.cli import main
from freeconv.errors import (
    DomainError,
    FreeconvError,
    InvalidParameter,
    NoConvergence,
    NotAMomentSequence,
    OrderExceeded,
    RouteMismatch,
)
from freeconv.measures import fraction_to_str, parse_measure
from freeconv.series import TailSeries

BERNOULLI = {"type": "atoms", "atoms": [["-1", "1/2"], ["1", "1/2"]]}
DELTA0 = {"type": "atoms", "atoms": [["0", "1"]]}
WIGNER01 = {
    "type": "jacobi",
    "alpha": [],
    "omega": [],
    "tail": {"kind": "wigner", "a": "0", "b": "1"},
}
ZERO_TAIL = {"kind": "wigner", "a": "3", "b": "0"}
P2 = {"vertices": 2, "root": 0, "edges": [[0, 1]]}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConvolve:
    def test_free_of_two_point_pair(self, tmp_path, capsys):
        mu = write(tmp_path, "mu.json", BERNOULLI)
        nu = write(tmp_path, "nu.json", BERNOULLI)
        code, out, _ = run(capsys, ["convolve", "free", mu, nu, "--order", "6"])
        assert code == 0
        obj = json.loads(out)
        assert obj["m"] == ["0", "2", "0", "6", "0", "20"]

    def test_sfree_of_constant_tail_doubles_coefficients(self, tmp_path, capsys):
        mu = write(tmp_path, "mu.json", WIGNER01)
        code, out, _ = run(capsys, ["convolve", "sfree", mu, mu, "--order", "10"])
        assert code == 0
        obj = json.loads(out)
        assert obj["jacobi"]["alpha"] == ["0", "0", "0", "0", "0"]
        assert obj["jacobi"]["omega"] == ["1", "2", "2", "2"]

    def test_orthogonal_right_identity_is_byte_exact(self, tmp_path, capsys):
        # the first six moments of atoms -3, -1, 1/2, 2 at weights 1/6, 1/4, 1/4, 1/3
        mu_obj = {"type": "moments", "m": ["1/24", "151/48", "-197/96", "3667/192", "-11549/384", "109891/768"]}
        mu = write(tmp_path, "mu.json", mu_obj)
        nu = write(tmp_path, "nu.json", DELTA0)
        code, out, _ = run(capsys, ["convolve", "orthogonal", mu, nu, "--order", "6"])
        assert code == 0
        assert json.loads(out)["m"] == mu_obj["m"]

    def test_boolean_identity_returns_atoms_near_1e6_within_bound(self, tmp_path, capsys):
        # the point mass at 0 is the boolean identity, so the emitted atoms
        # are the input's; a search over divisor pairs of the coefficients
        # of their polynomial did not finish in 20 s
        atoms = [["-98765/1000033", "1/3"], ["7/1000037", "1/3"], ["123457/1000003", "1/3"]]
        mu = write(tmp_path, "mu.json", {"type": "atoms", "atoms": atoms})
        nu = write(tmp_path, "nu.json", DELTA0)
        start = time.perf_counter()
        code, out, _ = run(capsys, ["convolve", "boolean", mu, nu, "--order", "8"])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert json.loads(out)["atoms"] == atoms
        assert elapsed < 2.0, elapsed

    def test_output_round_trips_through_parser(self, tmp_path, capsys):
        mu = write(tmp_path, "mu.json", BERNOULLI)
        code, out, _ = run(capsys, ["convolve", "boolean", mu, mu, "--order", "6"])
        assert code == 0
        first = json.loads(out)
        back = write(tmp_path, "back.json", first)
        code, out2, _ = run(capsys, ["convolve", "orthogonal", back, write(tmp_path, "d0.json", DELTA0), "--order", "6"])
        assert code == 0
        assert json.loads(out2)["m"] == first["m"]

    def test_iterated_orthogonal(self, tmp_path, capsys):
        mu = write(tmp_path, "mu.json", BERNOULLI)
        code, out, _ = run(
            capsys,
            ["convolve", "orthogonal-iter", mu, mu, "--order", "6", "--iterations", "4"],
        )
        assert code == 0
        # stabilized to the subordinate half by this depth
        assert json.loads(out)["m"] == ["0", "1", "0", "2", "0", "5"]

    def test_table_output(self, tmp_path, capsys):
        mu = write(tmp_path, "mu.json", BERNOULLI)
        code, out, _ = run(
            capsys, ["convolve", "boolean", mu, mu, "--order", "4", "--output", "table"]
        )
        assert code == 0
        assert "m[2] = 2" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        nu = write(tmp_path, "nu.json", DELTA0)
        code, _, err = run(capsys, ["convolve", "free", str(bad), nu])
        assert code == 2 and "error" in err

    def test_string_moments_rejected(self, tmp_path, capsys):
        mu = write(tmp_path, "mu.json", {"type": "moments", "m": "0123"})
        nu = write(tmp_path, "nu.json", DELTA0)
        code, out, err = run(capsys, ["convolve", "boolean", mu, nu, "--order", "4"])
        assert code == 2 and out == "" and "list" in err

    def test_wigner_tail_without_both_parameters_rejected(self, tmp_path, capsys):
        nu = write(tmp_path, "nu.json", DELTA0)
        for tail in ({"kind": "wigner", "a": "0"}, {"kind": "wigner", "b": "1"}):
            obj = {"type": "jacobi", "alpha": [], "omega": [], "tail": tail}
            mu = write(tmp_path, "mu.json", obj)
            code, out, err = run(capsys, ["convolve", "free", mu, nu, "--order", "4"])
            assert code == 2 and out == "" and "wigner" in err

    def test_unknown_measure_type_exit_code(self, tmp_path, capsys):
        mu = write(tmp_path, "mu.json", {"type": "gaussian"})
        nu = write(tmp_path, "nu.json", DELTA0)
        code, _, _ = run(capsys, ["convolve", "free", mu, nu])
        assert code == 2

    @pytest.mark.parametrize(
        "m",
        [
            ["0", "0", "5", "7"],  # m2 = 0 makes it a point mass at 0, so m3 must be 0
            ["0", "-1", "0", "1"],  # negative variance
        ],
    )
    def test_inconsistent_moment_list_exit_code(self, tmp_path, capsys, m):
        mu = write(tmp_path, "mu.json", {"type": "moments", "m": m})
        nu = write(tmp_path, "nu.json", DELTA0)
        code, out, err = run(capsys, ["convolve", "boolean", mu, nu, "--order", "4"])
        assert code == 3 and out == "" and "level 1" in err

    def test_too_few_moments_exit_code(self, tmp_path, capsys):
        mu = write(tmp_path, "mu.json", {"type": "moments", "m": ["0", "1", "0", "2"]})
        nu = write(tmp_path, "nu.json", DELTA0)
        code, out, err = run(capsys, ["convolve", "free", mu, nu, "--order", "10"])
        assert code == 6 and out == "" and "4 moments available" in err

    def test_too_few_recursion_levels_exit_code(self, tmp_path, capsys):
        obj = {"type": "jacobi", "alpha": ["0", "1"], "omega": ["1"], "tail": {"kind": "truncate"}}
        mu = write(tmp_path, "mu.json", obj)
        nu = write(tmp_path, "nu.json", DELTA0)
        code, out, err = run(capsys, ["convolve", "free", mu, nu, "--order", "10"])
        assert code == 6 and out == "" and "2 truncated recursion levels" in err


    @pytest.mark.parametrize(
        "obj",
        [
            {"type": "jacobi"},
            {"type": "jacobi", "alpha": [], "omega": []},
            {"type": "jacobi", "alpha": [], "omega": [], "tail": {"kind": "truncate"}},
        ],
    )
    def test_empty_recursion_rejected(self, tmp_path, capsys, obj):
        mu = write(tmp_path, "mu.json", obj)
        nu = write(tmp_path, "nu.json", DELTA0)
        for argv in (["free", mu, nu], ["boolean", nu, mu]):
            code, out, err = run(capsys, ["convolve", *argv, "--order", "4"])
            assert code == 2 and out == ""
            assert err == "error: recursion coefficients need an alpha entry or a tail ('wigner' in JSON)\n"

    @pytest.mark.parametrize("obj", [{"type": "moments"}, {"type": "moments", "m": []}])
    def test_empty_moment_list_rejected(self, tmp_path, capsys, obj):
        mu = write(tmp_path, "mu.json", obj)
        nu = write(tmp_path, "nu.json", DELTA0)
        for argv in (
            ["convolve", "free", mu, nu, "--order", "4"],
            ["convolve", "boolean", nu, mu, "--order", "4"],
            ["density", mu, "--points", "3"],
        ):
            code, out, err = run(capsys, argv)
            assert code == 2 and out == ""
            assert err == "error: a measure given by moments needs at least one ('m' in JSON)\n"

    def test_route_mismatch_exit_code(self, tmp_path, capsys, monkeypatch):
        compose = convolve.substitute_into_shifted

        def perturbed(outer, inner):
            c = compose(outer, inner).coeffs
            return TailSeries((*c[:3], c[3] + 1, *c[4:]))

        monkeypatch.setattr(convolve, "substitute_into_shifted", perturbed)
        mu = write(tmp_path, "mu.json", BERNOULLI)
        code, out, err = run(capsys, ["convolve", "free", mu, mu, "--order", "6"])
        assert code == 4 and out == "" and "coefficient 3 of K (order 6)" in err

    @pytest.mark.parametrize(
        "error, code",
        [
            (FreeconvError, 2),
            (InvalidParameter, 2),
            (NotAMomentSequence, 3),
            (RouteMismatch, 4),
            (DomainError, 5),
            (OrderExceeded, 6),
            (NoConvergence, 2),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
    )
    def test_each_error_class_carries_its_exit_code(self, capsys, monkeypatch, error, code):
        def refuse(*args, **kwargs):
            raise error("refused")

        monkeypatch.setattr(cli, "run_suites", refuse)
        assert error.exit_code == code
        assert run(capsys, ["verify"]) == (code, "", "error: refused\n")

    @pytest.mark.parametrize("order", ["0", "-3"])
    @pytest.mark.parametrize(
        "op", ["free", "boolean", "monotone", "orthogonal", "sfree", "orthogonal-iter"]
    )
    def test_order_below_one_rejected_by_every_op(self, tmp_path, capsys, op, order):
        # both factors hold continued fractions, so no op needs a K-series
        mu = write(tmp_path, "mu.json", BERNOULLI)
        nu = write(tmp_path, "nu.json", WIGNER01)
        argv = ["convolve", op, mu, nu, "--order", order]
        if op == "orthogonal-iter":
            argv += ["--iterations", "3"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and "order" in err

    @pytest.mark.parametrize("op", ["free", "boolean", "monotone", "orthogonal", "sfree"])
    def test_iterations_rejected_by_every_other_op(self, tmp_path, capsys, op):
        mu = write(tmp_path, "mu.json", BERNOULLI)
        argv = ["convolve", op, mu, mu, "--order", "6", "--iterations", "3"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and "--iterations" in err


BAD_LITERALS = ["1.5", "1e3", " 1/2 ", "1_0", "+1", "\u0661", "1e1000000", "1/0", "1/-2", "0x10", ""]


class TestInputGrammar:
    @pytest.mark.parametrize("literal", BAD_LITERALS)
    def test_literal_outside_the_grammar_is_named(self, tmp_path, capsys, monkeypatch, literal):
        # the literal is matched before Fraction reads it, so "1e1000000"
        # builds no integer; "1/0" matches and fails on its denominator
        real = measures._in_full
        monkeypatch.setattr(measures, "_in_full", lambda f, v: real(f, v) if v == "1/0" else pytest.fail(v))
        mu = write(tmp_path, "mu.json", {"type": "atoms", "atoms": [[literal, "1"]]})
        code, out, err = run(capsys, ["convolve", "free", mu, mu, "--order", "4"])
        assert code == 2 and out == "" and repr(literal) in err and "Traceback" not in err

    def test_json_integers_are_rationals(self, tmp_path, capsys):
        mu = write(tmp_path, "mu.json", {"type": "atoms", "atoms": [[-1, "1/2"], [1, "1/2"]]})
        code, out, _ = run(capsys, ["convolve", "free", mu, mu, "--order", "6"])
        assert code == 0 and json.loads(out)["m"] == ["0", "2", "0", "6", "0", "20"]

    @pytest.mark.parametrize(
        "obj, key",
        [
            ({"type": "moments", "m": ["0", "1"], "n": ["2"]}, "'n'"),
            ({"type": "jacobi", "alpha": ["0"], "omega": [], "tial": WIGNER01["tail"]}, "'tial'"),
            ({"type": "atoms", "atoms": [["0", "1"]], "Atoms": [], "weights": []}, "'Atoms', 'weights'"),
            ({"type": "jacobi", "alpha": ["0"], "omega": [], "tail": {**WIGNER01["tail"], "c": "1"}}, "'c'"),
            ({"type": "jacobi", "alpha": ["0"], "omega": [], "tail": {"kind": "truncate", "a": "0"}}, "'a'"),
        ],
        ids=["moments", "jacobi", "atoms", "wigner-tail", "truncate-tail"],
    )
    def test_unknown_measure_key_is_named(self, tmp_path, capsys, obj, key):
        mu = write(tmp_path, "mu.json", obj)
        for argv in (["convolve", "free", mu, mu, "--order", "4"], ["density", mu, "--points", "3"]):
            code, out, err = run(capsys, argv)
            assert code == 2 and out == "" and f"unknown key{'s' * (',' in key)} {key}" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"type": "atoms", "atoms": [["0", "1"]], "atoms": [["5", "1"]]}', "'atoms'"),
            ('{"type": "jacobi", "alpha": [], "omega": [], "tail": {"kind": "wigner", "a": "0", "b": "1", "b": "2"}}', "'b'"),
        ],
        ids=["top-level", "in-the-tail"],
    )
    def test_duplicate_key_is_refused(self, tmp_path, capsys, text, key):
        # the last value used to win: the first document read as the atom at 5
        mu = tmp_path / "mu.json"
        mu.write_text(text)
        for argv in (["convolve", "free", str(mu), str(mu), "--order", "4"], ["density", str(mu), "--points", "3"]):
            code, out, err = run(capsys, argv)
            assert code == 2 and out == "" and err.startswith("error: ")
            assert f"cannot read {mu}: duplicate key {key}" in err

    @pytest.mark.parametrize(
        "text, code",
        [
            ('{"type": "atoms", "atoms": [["0", "1"]], "atoms": [["5", "1"]]}', 2),
            ('{"a": ', 2),
            ('{"type": "atoms", "atoms": [[0, 1]]}', 0),
        ],
        ids=["duplicate-key", "truncated", "valid"],
    )
    def test_each_file_is_decoded_once(self, tmp_path, capsys, monkeypatch, text, code):
        # a refused document is not decoded again with the process-wide
        # int-digit limit lifted
        mu = tmp_path / "mu.json"
        mu.write_text(text)
        nu = write(tmp_path, "nu.json", DELTA0)
        decoded = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda doc, **kw: decoded.append(doc) or loads(doc, **kw))
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        assert run(capsys, ["convolve", "free", str(mu), nu, "--order", "4"])[0] == code
        assert decoded == ([text] if code else [text, json.dumps(DELTA0)])
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit

    def test_json_integer_past_the_digit_limit_is_read_in_full(self, tmp_path, capsys):
        # 4401 digits, past Python's default int/str limit of 4300; a moment
        # this size keeps the run fast, where an atom location this size
        # would send the atom search through seconds of Sturm chains
        big = "1" + "0" * 4400
        mu = tmp_path / "mu.json"
        mu.write_text('{"type": "moments", "m": [0, %s]}' % big)
        nu = write(tmp_path, "nu.json", DELTA0)
        code, out, _ = run(capsys, ["convolve", "boolean", str(mu), nu, "--order", "2"])
        assert code == 0 and json.loads(out)["m"] == ["0", big]

    def test_deep_nesting_is_refused(self, tmp_path, capsys):
        # the JSON decoder runs out of recursion depth: a parse error, not
        # the exit 1 of a failed verify check
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        p2 = write(tmp_path, "p2.json", P2)
        for argv in (["density", str(deep)], ["convolve", "free", str(deep), str(deep)], ["graph", "star", p2, str(deep)]):
            code, out, err = run(capsys, argv)
            assert code == 2 and out == "" and err.startswith(f"error: cannot read {deep}: ")
            assert "recursion" in err

    def test_unknown_graph_key_is_named(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", {**P2, "weights": [1]})
        code, out, err = run(capsys, ["graph", "star", g, g])
        assert code == 2 and out == "" and "unknown key 'weights' in a graph" in err

    @pytest.mark.parametrize(
        "alpha, omega, tail, level",
        [
            (["0", "5", "7"], ["0", "1"], None, "alpha[1]"),
            (["1"], ["0"], WIGNER01["tail"], "a 'wigner' tail"),
            (["1"], ["0", "2"], None, "omega[1]"),
            (["1", "2", "3"], ["4", "0"], WIGNER01["tail"], "alpha[2]"),
            # the zero omega is named before the missing alpha entry
            ([], ["0", "1"], None, "omega[1]"),
            # a tail of variance 0 is the zero omega at index len(omega); the
            # levels after it were dropped, and `convolve` exited 0
            (["1", "2", "3", "4"], ["2"], ZERO_TAIL, "alpha[2]"),
            (["1", "2"], [], ZERO_TAIL, "alpha[1]"),
        ],
        ids=["alpha", "wigner-tail", "omega", "second-level", "no-alpha", "zero-tail", "zero-tail-no-omega"],
    )
    def test_level_after_a_zero_omega_is_named(self, tmp_path, capsys, alpha, omega, tail, level):
        obj = {"type": "jacobi", "alpha": alpha, "omega": omega}
        if tail:
            obj["tail"] = tail
        mu = write(tmp_path, "mu.json", obj)
        zero = f"omega[{omega.index('0')}] is zero and" if "0" in omega else "the 'wigner' tail of variance 0"
        for argv in (
            ["convolve", "boolean", mu, mu, "--order", "4"],
            ["convolve", "free", mu, mu, "--order", "4"],
            ["density", mu, "--points", "3"],
        ):
            code, out, err = run(capsys, argv)
            assert code == 2 and out == "" and f"{zero} ends the recursion, but {level} follows it" in err

    @pytest.mark.parametrize(
        "alpha, omega, tail",
        [
            # alpha_1 = 5 used to come from the tail, and `convolve` exited 0
            (["1"], ["2", "3", "4"], {"kind": "wigner", "a": "5", "b": "1"}),
            (["1"], ["4", "0"], None),
        ],
        ids=["wigner-tail", "zero-omega"],
    )
    def test_omega_without_its_alpha_is_named(self, tmp_path, capsys, alpha, omega, tail):
        obj = {"type": "jacobi", "alpha": alpha, "omega": omega}
        if tail:
            obj["tail"] = tail
        mu = write(tmp_path, "mu.json", obj)
        nu = write(tmp_path, "nu.json", DELTA0)
        for argv in (
            ["convolve", "boolean", mu, nu, "--order", "4"],
            ["convolve", "free", mu, nu, "--order", "4"],
            ["density", mu, "--points", "3"],
        ):
            code, out, err = run(capsys, argv)
            assert code == 2 and out == "" and "omega[1] is given without alpha[1]" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["convolve", "orthogonal-iter", "{f}", "{f}"], "orthogonal-iter needs an iteration count"),
            (["convolve", "free", "{f}", "{f}", "--iterations", "2"], "--iterations is only for orthogonal-iter, not free"),
            (["density", "{f}", "--points", "1"], "need at least two grid points"),
            (["convolve", "free", "{f}", "{f}", "--order", "0"], "--order must be >= 1, got 0"),
            (["convolve", "orthogonal-iter", "{f}", "{f}", "--iterations", "0"], "--iterations must be >= 1, got 0"),
            (["density", "{f}", "--epsilon", "0"], "--epsilon must be finite and > 0, got 0.0"),
            (["density", "{f}", "--epsilon", "nan"], "--epsilon must be finite and > 0, got nan"),
            (
                ["graph", "free-ball", "{f}", "{f}", "--radius", "1", "--moments", "9"],
                "a free-ball of radius 1 determines only 3 root moments, 9 requested",
            ),
        ],
        ids=["no-iterations", "iterations-for-free", "points", "order", "iterations", "epsilon", "epsilon-nan", "free-ball-moments"],
    )
    @pytest.mark.parametrize("document", ["missing", "views", "inconsistent"])
    def test_a_misused_option_is_refused_before_any_file_is_read(self, tmp_path, capsys, argv, message, document):
        # these options used to be checked after the files were parsed, so a
        # missing file or a bad document was reported instead (the
        # inconsistent moments exit 3 when they are read)
        documents = {
            "views": {"type": "moments", "m": ["0", "1"], "jacobi": {"alpha": ["9"]}},
            "inconsistent": {"type": "moments", "m": ["0", "0", "5", "7"]},
        }
        path = str(tmp_path / "missing.json")
        if document in documents:
            path = write(tmp_path, f"{document}.json", documents[document])
        code, out, err = run(capsys, [a.format(f=path) for a in argv])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_views_beside_moments_are_checked(self, tmp_path, capsys):
        # the views used to be accepted and not read: `convolve` printed the
        # moments' own views
        mu = write(tmp_path, "mu.json", {"type": "moments", "m": ["0", "1"], "atoms": [["5", "1"]], "jacobi": {"alpha": ["9"]}})
        nu = write(tmp_path, "nu.json", DELTA0)
        for argv in (["convolve", "boolean", mu, nu, "--order", "2"], ["density", mu, "--points", "3"]):
            code, out, err = run(capsys, argv)
            assert code == 2 and out == "" and "'jacobi' is not the view its moments give" in err
        # the views `convolve` prints read back
        code, out, _ = run(capsys, ["convolve", "boolean", write(tmp_path, "b.json", BERNOULLI), nu, "--order", "4"])
        printed = write(tmp_path, "out.json", json.loads(out))
        assert code == 0 and run(capsys, ["convolve", "boolean", printed, nu, "--order", "4"])[:2] == (0, out)


class TestHelp:
    @pytest.mark.parametrize(
        "command, choices",
        [
            ("convolve", "{free,boolean,monotone,orthogonal,sfree,orthogonal-iter}"),
            ("graph", "{orthogonal,comb,star,free-ball}"),
            ("verify", "{partitions,convolutions,opmodel,all}"),
        ],
    )
    def test_each_command_lists_its_operations_in_order(self, capsys, command, choices):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0 and choices in capsys.readouterr().out


class TestEmissionSpeed:
    def test_free_at_order_60_emits_within_bound(self, tmp_path, capsys):
        # the recursion coefficients emitted with the 60 moments cost O(N^2):
        # on a 2-core machine under Python 3.11 the run takes about 1.2 s,
        # where peeling one K-series reciprocal per level took about 15 s
        mu = {"type": "atoms", "atoms": [["-2", "1/6"], ["-3/2", "1/12"], ["-1/2", "1/2"], ["1/2", "1/4"]]}
        nu = {"type": "atoms", "atoms": [["-3", "5/12"], ["-1", "1/3"], ["1", "1/4"]]}
        argv = ["convolve", "free", write(tmp_path, "mu.json", mu), write(tmp_path, "nu.json", nu)]
        start = time.perf_counter()
        code, out, _ = run(capsys, argv + ["--order", "60"])
        elapsed = time.perf_counter() - start
        assert code == 0
        obj = json.loads(out)
        assert len(obj["m"]) == 60 and len(obj["jacobi"]["alpha"]) == 30
        assert elapsed < 5.0, elapsed

    def test_free_at_order_80_composes_within_bound(self, tmp_path, capsys):
        # both factors are atomic, so the s-free pass and the check of u compose
        # through their continued fractions, O(d N^2) for d levels: on a
        # 2-core machine under Python 3.11 the run takes about 0.8 s, where
        # the O(N^3) power table took about 3 s
        mu = {"type": "atoms", "atoms": [["-2", "1/6"], ["-3/2", "1/12"], ["-1/2", "1/2"], ["1/2", "1/4"]]}
        nu = {"type": "atoms", "atoms": [["-3", "5/12"], ["-1", "1/3"], ["1", "1/4"]]}
        argv = ["convolve", "free", write(tmp_path, "mu.json", mu), write(tmp_path, "nu.json", nu)]
        start = time.perf_counter()
        code, out, _ = run(capsys, argv + ["--order", "80"])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert len(json.loads(out)["m"]) == 80
        assert elapsed < 2.0, elapsed

    def test_free_at_order_80_on_moments_within_bound(self, tmp_path, capsys, monkeypatch):
        # the same pair given as 80 moments each composes through the O(N^3)
        # power table of its K-series: on a 2-core machine under Python 3.11
        # the convolution takes about 0.1 s on the graded integer kernel,
        # where the Fraction loops took about 2.2 s.  Only the convolution is
        # timed, not the parse or the emission of recursion coefficients.
        mu = {"type": "atoms", "atoms": [["-2", "1/6"], ["-3/2", "1/12"], ["-1/2", "1/2"], ["1/2", "1/4"]]}
        nu = {"type": "atoms", "atoms": [["-3", "5/12"], ["-1", "1/3"], ["1", "1/4"]]}
        paths = {}
        for name, obj in (("mu", mu), ("nu", nu)):
            moments = parse_measure(obj).moments(80)
            paths[name] = write(tmp_path, name + ".json", obj)
            as_moments = {"type": "moments", "m": [fraction_to_str(x) for x in moments]}
            paths[name + "_m"] = write(tmp_path, name + "_m.json", as_moments)
        code, out, _ = run(capsys, ["convolve", "free", paths["mu"], paths["nu"], "--order", "80"])
        assert code == 0
        elapsed = []

        def timed(mu, nu, order, free=convolve.OPERATIONS["free"]):
            start = time.perf_counter()
            result = free(mu, nu, order)
            elapsed.append(time.perf_counter() - start)
            return result

        monkeypatch.setitem(convolve.OPERATIONS, "free", timed)
        code, out_m, _ = run(capsys, ["convolve", "free", paths["mu_m"], paths["nu_m"], "--order", "80"])
        assert code == 0
        assert json.loads(out_m)["m"] == json.loads(out)["m"]
        assert len(elapsed) == 1 and elapsed[0] < 1.5, elapsed


class TestDensity:
    def test_semicircle_grid(self, tmp_path, capsys):
        mu = write(tmp_path, "mu.json", WIGNER01)
        code, out, _ = run(
            capsys,
            ["density", mu, "--xmin", "-3", "--xmax", "3", "--points", "601"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,f"
        assert len(lines) == 602
        worst = 0.0
        for line in lines[1:]:
            x, f = (float(v) for v in line.split(","))
            want = math.sqrt(max(4 - x * x, 0.0)) / (2 * math.pi)
            worst = max(worst, abs(f - want))
        assert worst <= 1e-3

    def test_not_a_moment_sequence_exit_code(self, tmp_path, capsys):
        mu = write(tmp_path, "mu.json", {"type": "moments", "m": ["0", "-1"]})
        code, _, _ = run(capsys, ["density", mu, "--points", "3"])
        assert code == 3


    @pytest.mark.parametrize("flag", ["--xmin", "--xmax", "--epsilon"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_argument_rejected(self, tmp_path, capsys, flag, value):
        mu = write(tmp_path, "mu.json", WIGNER01)
        code, out, err = run(capsys, ["density", mu, "--points", "3", f"{flag}={value}"])
        assert code == 2 and out == "" and f"{flag[2:]} must be finite" in err

    def test_truncated_recursion_refused_before_output(self, tmp_path, capsys):
        # three levels fix five moments, not a density; closing the fraction
        # would give a Gauss quadrature's, 212206.6 at x = 0
        mu = write(tmp_path, "mu.json", {"type": "jacobi", "alpha": ["0", "1/2", "0"], "omega": ["1", "2"]})
        code, out, err = run(capsys, ["density", mu, "--points", "3"])
        assert code == 6 and out == "" and "3 truncated recursion levels" in err

    def test_free_convolution_output_refused(self, tmp_path, capsys):
        # the emitted moments of mu + nu are a finite list: no density follows
        mu = {"type": "atoms", "atoms": [["-2", "1/6"], ["-3/2", "1/12"], ["-1/2", "1/2"], ["1/2", "1/4"]]}
        nu = {"type": "atoms", "atoms": [["-3", "5/12"], ["-1", "1/3"], ["1", "1/4"]]}
        argv = ["convolve", "free", write(tmp_path, "mu.json", mu), write(tmp_path, "nu.json", nu)]
        code, out, _ = run(capsys, argv + ["--order", "40"])
        assert code == 0
        path = tmp_path / "free.json"
        path.write_text(out)
        code, out, err = run(capsys, ["density", str(path), "--xmin", "-5", "--xmax", "2", "--points", "29"])
        assert code == 6 and out == "" and "20 truncated recursion levels" in err

    def test_finite_and_atomic_inputs_print(self, tmp_path, capsys):
        for obj in (
            BERNOULLI,
            {"type": "jacobi", "alpha": ["0"], "omega": ["0"]},
            # a zero omega that ends the input, before a tail that adds no level
            {"type": "jacobi", "alpha": ["0", "1"], "omega": ["2", "0"], "tail": {"kind": "truncate"}},
        ):
            code, out, _ = run(capsys, ["density", write(tmp_path, "mu.json", obj), "--points", "3"])
            assert code == 0 and len(out.splitlines()) == 4

    def test_depth_option_is_gone(self, tmp_path, capsys):
        mu = write(tmp_path, "mu.json", WIGNER01)
        with pytest.raises(SystemExit) as exc:
            main(["density", mu, "--points", "3", "--depth", "8"])
        assert exc.value.code == 2 and capsys.readouterr().out == ""


class TestGraph:
    def test_star_of_two_edges(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", P2)
        code, out, _ = run(capsys, ["graph", "star", g, g, "--moments", "4"])
        assert code == 0
        obj = json.loads(out)
        assert obj["graph"]["vertices"] == 3
        assert obj["moments"] == ["0", "2", "0", "4"]

    def test_free_ball_arcsine(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", P2)
        code, out, _ = run(
            capsys, ["graph", "free-ball", g, g, "--radius", "6", "--moments", "6"]
        )
        assert code == 0
        assert json.loads(out)["moments"] == ["0", "2", "0", "6", "0", "20"]

    def test_free_ball_refuses_moments_beyond_its_radius(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", P2)
        argv = ["graph", "free-ball", g, g, "--radius", "1", "--moments"]
        code, out, err = run(capsys, argv + ["8"])
        assert code == 2 and out == "" and "radius 1" in err
        # 2 * radius + 1 moments are determined and agree with the arcsine law
        code, out, _ = run(capsys, argv + ["3"])
        assert code == 0
        assert json.loads(out)["moments"] == ["0", "2", "0"]

    def test_orthogonal_matches_convolution_command(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", P2)
        code, out, _ = run(capsys, ["graph", "orthogonal", g, g, "--moments", "6"])
        assert code == 0
        graph_moments = json.loads(out)["moments"]
        mu = write(tmp_path, "mu.json", BERNOULLI)
        code, out2, _ = run(capsys, ["convolve", "orthogonal", mu, mu, "--order", "6"])
        assert code == 0
        assert json.loads(out2)["m"] == graph_moments

    @pytest.mark.parametrize(
        "op, flag, value",
        [("star", "--moments", "-4"), ("free-ball", "--moments", "0"),
         ("free-ball", "--radius", "-1"), ("free-ball", "--radius", "0")],
    )
    def test_out_of_range_argument_is_named(self, tmp_path, capsys, op, flag, value):
        g = write(tmp_path, "g.json", P2)
        code, out, err = run(capsys, ["graph", op, g, g, flag, value])
        assert code == 2 and out == ""
        assert f"{flag} must be >= 1, got {value}" in err

    @pytest.mark.parametrize("op", ["star", "comb", "orthogonal"])
    @pytest.mark.parametrize("radius", ["3", "0"])
    def test_radius_is_only_for_the_free_ball(self, tmp_path, capsys, op, radius):
        # the glued products read no radius, so a radius given to them is refused
        g = write(tmp_path, "g.json", P2)
        code, out, err = run(capsys, ["graph", op, g, g, "--radius", radius])
        assert code == 2 and out == "" and err == f"error: --radius is only for free-ball, not {op}\n"

    def test_bad_graph_exit_code(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", {"vertices": 2, "root": 9, "edges": []})
        code, _, _ = run(capsys, ["graph", "star", g, g])
        assert code == 2

    @pytest.mark.parametrize(
        "obj",
        [
            {"vertices": 2.9, "root": 0, "edges": [[0, 1]]},
            {"vertices": "3", "root": 0, "edges": [[0, 1]]},
            {"vertices": True, "root": 0, "edges": []},
            {"vertices": 2, "root": False, "edges": [[0, 1]]},
            {"root": 0, "edges": []},
            {"vertices": 2, "root": 0, "edges": [[0, 1.7]]},
            {"vertices": 2, "root": 0, "edges": [[0, True]]},
            {"vertices": 3, "root": 0, "edges": [[0, 1, 5]]},
            {"vertices": 2, "root": 0, "edges": [[0]]},
            {"vertices": 2, "root": 0, "edges": "01"},
            {"vertices": 2, "root": 0, "edges": [{"u": 0, "v": 1}]},
            {"vertices": 3, "root": 1},
        ],
    )
    def test_malformed_graph_is_rejected(self, tmp_path, capsys, obj):
        bad = write(tmp_path, "bad.json", obj)
        good = write(tmp_path, "good.json", P2)
        for argv in (["star", bad, good], ["free-ball", good, bad]):
            code, out, err = run(capsys, ["graph", *argv])
            assert code == 2 and out == "" and "graph" in err, (argv, err)

    def test_free_ball_past_the_basis_cap_is_rejected(self, tmp_path, capsys):
        # 976 561 words of length <= 8 in the free product of two 6-cliques
        k6 = {"vertices": 6, "root": 0, "edges": [[u, v] for u in range(6) for v in range(u + 1, 6)]}
        g = write(tmp_path, "k6.json", k6)
        code, out, err = run(capsys, ["graph", "free-ball", g, g, "--radius", "8"])
        assert code == 2 and out == "" and "radius 8 would have more than 200000 words" in err

    def test_free_ball_of_a_million_vertices_is_refused_before_any_is_read(self, tmp_path, capsys):
        # the words are counted from each factor's number of letters, so the
        # refusal costs nothing per vertex
        g = write(tmp_path, "big.json", {"vertices": 10**6, "root": 0, "edges": [[0, 1]]})
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code, out, err = run(capsys, ["graph", "free-ball", g, g, "--radius", "1", "--moments", "1"])
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == "" and "radius 1 would have more than 200000 words" in err
        assert elapsed < 0.5 and peak < 2**20, (elapsed, peak)

    @pytest.mark.parametrize(
        "op, vertices",
        [("star", 1_999_999), ("comb", 10**12), ("orthogonal", 10**12 - 10**6 + 1)],
    )
    def test_glued_product_of_a_million_vertices_is_refused_before_any_is_read(self, tmp_path, capsys, op, vertices):
        # the product's vertex count comes from the factor sizes and the
        # number of hosts, so the refusal builds no host list and no copy
        g = write(tmp_path, "big.json", {"vertices": 10**6, "root": 0, "edges": [[0, 1]]})
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code, out, err = run(capsys, ["graph", op, g, g, "--moments", "1"])
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert f"the {op} product would have {vertices} vertices, more than 200000" in err
        assert elapsed < 0.5 and peak < 2**20, (elapsed, peak)

    def test_glued_product_at_the_vertex_cap(self, tmp_path, capsys):
        # the star of n1 and n2 vertices has n1 + n2 - 1: 200 000 is built,
        # 200 001 is refused
        g1, g2, g3 = (
            write(tmp_path, f"g{n}.json", {"vertices": n, "root": 0, "edges": [[0, 1]]})
            for n in (100_000, 100_001, 100_002)
        )
        code, out, _ = run(capsys, ["graph", "star", g1, g2, "--moments", "2"])
        assert code == 0 and json.loads(out)["graph"]["vertices"] == 200_000
        code, out, err = run(capsys, ["graph", "star", g1, g3, "--moments", "2"])
        assert code == 2 and out == "" and "200001 vertices, more than 200000" in err

    def test_free_ball_at_a_radius_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", P2)
        code, out, _ = run(capsys, ["graph", "free-ball", g, g, "--radius", "2000", "--moments", "3"])
        assert code == 0
        obj = json.loads(out)
        assert obj["graph"]["vertices"] == 1 + 2 * 2000
        assert obj["moments"] == ["0", "2", "0"]


class TestVerify:
    def test_partition_suite_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "partitions", "--n-max", "7"])
        assert code == 0
        assert "FAIL" not in out
        assert "checks passed" in out

    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_n_max_below_one_is_rejected(self, capsys, n_max):
        # every range the partition checks loop over would be empty
        code, out, err = run(capsys, ["verify", "--suite", "partitions", "--n-max", n_max])
        assert code == 2 and out == ""
        assert f"--n-max must be >= 1, got {n_max}" in err

    def test_n_max_above_the_enumeration_cap_is_rejected(self, capsys):
        # every check clamps n at or below partitions.MAX_ENUM_N = 12
        code, out, err = run(capsys, ["verify", "--suite", "convolutions", "--n-max", "13"])
        assert code == 2 and out == ""
        assert "--n-max must be <= 12, the partition enumerations' cap, got 13" in err

    @pytest.mark.parametrize("n_max", [0, 13, 50])
    def test_run_suites_rejects_n_max_outside_the_enumerations(self, n_max):
        for suite in (*verify.SUITES, "all"):
            with pytest.raises(InvalidParameter, match=f"got {n_max}"):
                verify.run_suites(suite, n_max=n_max)

    def test_suite_inputs_rejects_an_unknown_suite(self):
        with pytest.raises(InvalidParameter, match="unknown suite 'nope'"):
            verify.suite_inputs("nope")

    def test_run_suites_rejects_an_unknown_suite(self):
        with pytest.raises(InvalidParameter, match="unknown suite 'nope'"):
            verify.run_suites("nope")

    @staticmethod
    def stub_checks(monkeypatch):
        """Replace every registered check by one that passes at once."""
        for name, c in list(verify.CHECKS.items()):
            monkeypatch.setitem(verify.CHECKS, name, verify.Check(c.suite, lambda inputs, rng: None))

    def test_failed_check_prints_its_witness(self, capsys, monkeypatch):
        self.stub_checks(monkeypatch)
        name = "monotone-splits-into-orthogonal-then-boolean"

        def broken(inputs, rng):
            verify.expect_equal(1, 2, "pair {}", 0)

        monkeypatch.setitem(verify.CHECKS, name, verify.Check("convolutions", broken))
        code, out, err = run(capsys, ["verify", "--suite", "convolutions"])
        lines = out.splitlines()
        n = sum(c.suite == "convolutions" for c in verify.CHECKS.values())
        assert code == 1
        assert f"FAIL {name}  (seed 7, pair 0: 1 != 2)" in lines
        assert lines[-1] == f"{n - 1}/{n} checks passed"
        assert f"first failure: {name}" in err

    def test_check_raising_a_package_error_fails_alone(self, capsys, monkeypatch):
        # the subordination check runs for real, with an iteration cap of 1,
        # so subordination_eval raises NoConvergence inside it
        name = "subordination-fixed-point-system"
        real = verify.CHECKS[name]
        self.stub_checks(monkeypatch)
        monkeypatch.setitem(verify.CHECKS, name, real)
        monkeypatch.setattr(convolve, "SUBORDINATION_MAX_ITER", 1)
        code, out, err = run(capsys, ["verify", "--suite", "convolutions"])
        lines = out.splitlines()
        n = sum(c.suite == "convolutions" for c in verify.CHECKS.values())
        assert code == 1
        failed = [line for line in lines if line.startswith("FAIL ")]
        assert len(failed) == 1
        assert failed[0].startswith(f"FAIL {name}  (seed 7, raised NoConvergence: no convergence within 1 ")
        assert sum(line.startswith("PASS ") for line in lines) == n - 1
        assert lines[-1] == f"{n - 1}/{n} checks passed"
        assert f"first failure: {name}" in err

    def test_all_suites_print_the_registry_in_order(self, capsys, monkeypatch):
        self.stub_checks(monkeypatch)
        code, out, _ = run(capsys, ["verify", "--suite", "all"])
        names = [line.split()[1] for line in out.splitlines()[:-1]]
        assert code == 0
        assert names == list(verify.CHECKS)
        assert len(names) == 54

"""The diagonal baselines: row balancing and Sinkhorn balancing return torus
elements applied by ``group.apply``, Sinkhorn matches its old three-pass
loop (tests/sinkhorn_reference.py) bit for bit, and ``geoprec baseline``
prints what it printed when it applied dense diagonal matrices."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sinkhorn_reference as ref
from test_io_cli import _run_cli
from geoprec.cli import cli_dispatch
from geoprec.errors import ZeroRowOrColumnError
from geoprec.group import GroupScheme, apply
from geoprec.matrix import row_balance, sinkhorn_equilibrate

_PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _stack(S):
    assert S.dtype == np.float64 and S.shape[1:] == (1, 1)
    return S.ravel()


@pytest.mark.parametrize("rows", [
    [[1e200, 1e200], [1.0, 2.0]],
    [[1e-200, 3e-200], [1.0, 2.0]],
    [[1e300, -1e308], [1e-300, 2e-300]],
], ids=["huge-row", "tiny-row", "float-range-ends"])
def test_row_balance_scales_graded_rows(rows):
    """Each row is divided by its largest magnitude before its norm is taken:
    the norms of 1e200 and 1e-200 rows no longer overflow to a zero scaling
    or underflow to a "zero row"."""
    a = np.array(rows)
    g = row_balance(a)
    assert g.scheme == GroupScheme.diagonal(2)
    x = _stack(g.left[0])
    assert np.all(np.isfinite(x)) and np.all(x > 0)
    b = apply(g, a)
    assert np.allclose(np.linalg.norm(b, axis=1), 1.0, rtol=1e-14, atol=0)


def test_row_balance_of_a_subnormal_row_is_not_finite():
    """A row whose largest magnitude is 1e-310 needs a scaling beyond the float
    range; a zero row is still a zero row."""
    with pytest.raises(FloatingPointError, match="row balance"):
        row_balance(np.array([[1e-310, 3e-310], [1.0, 2.0]]))
    with pytest.raises(ZeroRowOrColumnError) as info:
        row_balance(np.array([[1.0, 2.0], [0.0, -0.0]]))
    assert (info.value.index, info.value.axis) == (1, 0)


def test_sinkhorn_raises_on_a_scaling_that_is_not_finite():
    """The old loop returned NaN scalings with converged False after 1000 iterations."""
    with pytest.raises(FloatingPointError, match="Sinkhorn scaling is not finite at iteration 1"):
        sinkhorn_equilibrate(np.array([[1e-310, 3e-310], [1.0, 2.0]]))


def test_cli_baseline_exits_3_on_a_scaling_that_is_not_finite(tmp_path, capsys):
    path = tmp_path / "tiny.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n1e-310\n1\n3e-310\n2\n")
    assert cli_dispatch(["baseline", "--input", str(path), "--method", "sinkhorn"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("Sinkhorn scaling is not finite at iteration 1\n")


def test_a_scaling_out_of_range_raises_without_a_warning(tmp_path):
    """The finiteness checks report a scaling out of range, so the arithmetic
    before them warns of nothing, and the command prints its one-line message
    alone."""
    a = np.array([[1e-310, 3e-310], [1.0, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (row_balance, sinkhorn_equilibrate):
            with pytest.raises(FloatingPointError):
                fn(a)
    path = tmp_path / "tiny.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n1e-310\n1\n3e-310\n2\n")
    run = _run_cli(["baseline", "--input", str(path), "--method", "sinkhorn"])
    assert (run.returncode, run.stdout) == (3, "")
    assert run.stderr == "Sinkhorn scaling is not finite at iteration 1\n"


@st.composite
def _matrices(draw):
    """Up to 6x6 real or complex matrices with magnitudes over 1e+-6, some
    entries zero, and now and then a zero row or column or a tiny entry."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    size = m * n
    mag = draw(st.lists(st.floats(-6, 6), min_size=size, max_size=size))
    sign = draw(st.lists(st.sampled_from([1.0, -1.0, 1j, -1j, 0.6 + 0.8j]),
                         min_size=size, max_size=size))
    zero = draw(st.lists(st.sampled_from([False] * 4 + [True]), min_size=size, max_size=size))
    a = np.where(zero, 0, np.power(10.0, mag) * np.array(sign)).reshape(m, n)
    if draw(st.booleans()):
        a = a.real
    if draw(st.integers(0, 9)) == 0:
        a.flat[draw(st.integers(0, size - 1))] = draw(st.sampled_from([1e-310, 5e-324, 1e300]))
    return a


def _outcome(fn, a, max_iters, tol):
    try:
        with np.errstate(all="ignore"):
            return fn(a, max_iters=max_iters, tol=tol)
    except ZeroRowOrColumnError as exc:
        return ("zero", exc.index, exc.axis)
    except FloatingPointError:
        return ("not finite",)


@_PROPERTY
@given(_matrices(), st.integers(0, 60), st.sampled_from([0.0, 1e-14, 1e-10, 1e-6, 1e-2, 1.0]))
def test_sinkhorn_matches_the_three_pass_loop_bit_for_bit(a, max_iters, tol):
    """d, e, converged and iterations of the old loop, which formed the scaled
    matrix three times an iteration; where its scalings left the float range
    (NaN or inf), the new loop raises FloatingPointError instead."""
    got = _outcome(sinkhorn_equilibrate, a, max_iters, tol)
    want = _outcome(ref.sinkhorn, a, max_iters, tol)
    if isinstance(want[0], str):
        assert got == want
        return
    d, e, converged, iterations = want
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        assert got == ("not finite",)
        return
    g = got.element
    assert g.scheme == GroupScheme.diagonal(*a.shape, side="both")
    for stack, vector in ((g.left[0], d), (g.right[0], e)):
        assert _stack(stack).tobytes() == vector.tobytes()
    assert (got.converged, got.iterations) == (converged, iterations)


def _peak_ratio(fn, a):
    tracemalloc.start()
    try:
        fn(a)
        return tracemalloc.get_traced_memory()[1] / a.nbytes
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape", [(100, 3000), (3000, 100)])
@pytest.mark.parametrize("fn,bound", [(row_balance, 3.0), (sinkhorn_equilibrate, 5.0)],
                         ids=["row_balance", "sinkhorn"])
def test_baselines_hold_a_few_copies_of_the_input(shape, fn, bound):
    """No m x m or n x n diagonal matrix: the dense np.diag scalings held 30
    (row balance, 3000 rows) and 32 (Sinkhorn) times the input's bytes."""
    a = np.random.default_rng(5).standard_normal(shape)
    assert _peak_ratio(fn, a) <= bound


def test_baseline_path_takes_no_inverse(tmp_path, monkeypatch, capsys):
    """The scalings are applied by group.apply, which divides by a torus entry:
    no np.linalg.inv of a diagonal matrix."""
    calls = []
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a))
    a = np.array([[4.0, 1.0, 0.5], [2.0, 3.0, 0.0], [0.0, 1.0, 2.0]])
    apply(row_balance(a), a)
    apply(sinkhorn_equilibrate(a).element, a)
    path = tmp_path / "a.mtx"
    path.write_text(_GRADED)
    assert cli_dispatch(["baseline", "--input", str(path), "--method", "sinkhorn"]) == 0
    assert capsys.readouterr().out.startswith("method=sinkhorn kF ")
    assert calls == []


# A 4x4 matrix with rows graded from 1e3 to 1e-4, a complex 3x3 matrix and a
# real 2x3 matrix.
_GRADED = """%%MatrixMarket matrix array real general
4 4
4000.0
2.0
0.01
0.0
-1000.0
5.0
0.03
0.0002
2000.0
-1.0
0.07
0.0001
0.0
3.0
-0.02
0.0009
"""
_COMPLEX = """%%MatrixMarket matrix coordinate complex general
3 3 7
1 1 2.0 1.0
1 2 0.5 -3.0
2 1 -1.0 0.25
2 2 0.0 4.0
2 3 1.5 0.0
3 2 2.0 2.0
3 3 -6.0 1.0
"""
_RECTANGULAR = """%%MatrixMarket matrix array real general
2 3
1.0
0.5
2.0
0.0
-3.0
7.0
"""
_JACOBI_SQUARE = (2, "", "Jacobi scaling needs a square matrix\n")


@pytest.mark.parametrize("text,method,want", [
    (_GRADED, "jacobi-left", (0, "method=jacobi-left kF 6386816.082659043 -> 4.862339097777702 "
                                "kappa 6386494.004638745 -> 2.1992328534747636\n", "")),
    (_GRADED, "jacobi-sym", (0, "method=jacobi-sym kF 6386816.082659043 -> 94005.25989047904 "
                               "kappa 6386494.004638745 -> 88041.21635843089\n", "")),
    (_GRADED, "sinkhorn", (0, "method=sinkhorn kF 6386816.082659043 -> 4.768703229670916 "
                             "kappa 6386494.004638745 -> 2.11976490116542\n", "")),
    (_COMPLEX, "jacobi-left", (0, "method=jacobi-left kF 7.378474081097552 -> 6.301161556743737 "
                                 "kappa 5.646943391902704 -> 5.0388277107397785\n", "")),
    (_COMPLEX, "jacobi-sym", (0, "method=jacobi-sym kF 7.378474081097552 -> 5.392250789763604 "
                                "kappa 5.646943391902704 -> 4.092902102601334\n", "")),
    (_COMPLEX, "sinkhorn", (0, "method=sinkhorn kF 7.378474081097552 -> 5.2380523556691445 "
                              "kappa 5.646943391902704 -> 3.537055696893543\n", "")),
    (_RECTANGULAR, "jacobi-left", _JACOBI_SQUARE),
    (_RECTANGULAR, "jacobi-sym", _JACOBI_SQUARE),
    (_RECTANGULAR, "sinkhorn", (0, "method=sinkhorn kF 3.8546297935002336 -> 2.0132154570482066 "
                                  "kappa 3.5749018326156916 -> 1.121755976988659\n", "")),
], ids=["graded-jacobi-left", "graded-jacobi-sym", "graded-sinkhorn", "complex-jacobi-left",
        "complex-jacobi-sym", "complex-sinkhorn", "rectangular-jacobi-left",
        "rectangular-jacobi-sym", "rectangular-sinkhorn"])
def test_cli_baseline_prints_the_recorded_lines(tmp_path, capsys, text, method, want):
    """Exit code, stdout and stderr as recorded when the command applied the
    Sinkhorn scalings as X @ A @ inv(Y) and took four SVDs (one BLAS thread)."""
    path = tmp_path / "a.mtx"
    path.write_text(text)
    code = cli_dispatch(["baseline", "--input", str(path), "--method", method])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == want

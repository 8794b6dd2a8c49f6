"""Every --out byte is the same whichever kernel OpenBLAS runs, because no
analysis step calls BLAS or LAPACK: products and sums are numpy elementwise
operations and reductions, and the gravity fit solves its 4 x 4 normal
equations and takes their condition numbers in numpy loops
(``models._solve`` and ``models._condition``).  LAPACK stays the
reference here, in the tests.  No command imports ``numpy.ma`` either,
which numpy's percentiles and set operations do on first use."""
import ast
import ctypes
import glob
import inspect
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from segflow.cli import main
from segflow.metrics import pearson
from segflow.models import _COND_LIMIT, _condition, _solve
from segflow.segregation import _assortativity_e
from segflow.stats import gini
from test_golden import COMMANDS, SYNTH_ARGS

SRC = Path(__file__).resolve().parent.parent / "src"
CROSS_KERNEL = ("gravity", "jackknife", "sweep", "gini-report")
SINGLE_PASS = ("ingest", "diversity", "network", "mixing", "asymmetry", "gravity")
RESAMPLING = ("sweep", "null", "jackknife", "gini-report")
BLAS_NAMES = {"dot", "einsum", "matmul", "inner", "vdot", "tensordot", "linalg"}
# numpy calls that import numpy.ma (about 1.3 MB of pages) on numpy 2.4,
# through the bare np.unique they call; np.unique itself does unless it
# returns indices, an inverse or counts
MA_NAMES = {"percentile", "quantile", "median", "nanpercentile", "nanquantile", "nanmedian",
            "union1d", "setdiff1d", "intersect1d", "setxor1d", "unique_values", "ma"}
UNIQUE_RETURNS = {"return_index", "return_inverse", "return_counts"}


def openblas_core():
    """The name of the kernel that numpy's bundled OpenBLAS runs, or None."""
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(handle, symbol):
                corename = getattr(handle, symbol)
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


def has_avx2() -> bool:
    try:
        with open("/proc/cpuinfo") as fh:
            return any("avx2" in line.split() for line in fh if line.startswith("flags"))
    except OSError:
        return False


def start(core, city: Path, out: Path) -> subprocess.Popen:
    """A process that prints the name of the OpenBLAS kernel it runs, the
    one ``core`` forces or, with None, the one OpenBLAS picks, and then runs
    the cross-kernel commands on ``city``, each into its folder of ``out``."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(SRC)
    if core:
        env["OPENBLAS_CORETYPE"] = core
    runs = [[command, "--data", str(city), "--out", str(out / command), *flags]
            for command, flags in COMMANDS if command in CROSS_KERNEL]
    code = ("import ctypes, glob, os\nimport numpy as np\nfrom segflow.cli import main\n"
            + inspect.getsource(openblas_core)
            + f"print(openblas_core(), flush=True)\nfor args in {runs!r}:\n"
            "    assert main(args) == 0\n")
    return subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def out_bytes(out: Path) -> dict[str, bytes]:
    return {f"{d.name}/{p.name}": p.read_bytes()
            for d in sorted(out.iterdir()) for p in sorted(d.iterdir())}


def test_out_bytes_do_not_depend_on_the_openblas_kernel(tmp_path):
    """gravity, jackknife, sweep and gini-report write the same bytes on the
    smoke city under the kernel OpenBLAS picks and under the Prescott one,
    and the Haswell one where the CPU has AVX2.  The three processes run at
    once, in about 1 s on 2 cores."""
    default = openblas_core()
    if platform.machine().lower() not in ("x86_64", "amd64") or not default:
        pytest.skip("numpy's OpenBLAS reports no x86 core name, so OPENBLAS_CORETYPE "
                    "cannot be checked to pick another kernel")
    city = tmp_path / "city"
    assert main(["synth", "--out", str(city), *SYNTH_ARGS]) == 0
    cores = [None, "Prescott"] + (["Haswell"] if has_avx2() and default != "Haswell" else [])
    procs = {core: start(core, city, tmp_path / (core or "default")) for core in cores}
    kernels = {}
    for core, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr[-2000:]
        kernels[core] = stdout.splitlines()[0]
    if len(set(kernels.values())) < len(cores):
        pytest.skip(f"OpenBLAS did not run the kernel OPENBLAS_CORETYPE asked for: {kernels}")
    want = out_bytes(tmp_path / "default")
    for core in cores[1:]:
        got = out_bytes(tmp_path / core)
        assert sorted(got) == sorted(want)
        assert [name for name in want if got[name] != want[name]] == [], (
            f"OPENBLAS_CORETYPE={core}: kernel {kernels[core]}")


def package_nodes():
    """(file name, node, the attribute, name or import it names, if any)
    for every AST node of ``src/segflow``."""
    for path in sorted((SRC / "segflow").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.alias) else None)
            yield path.name, node, name


def test_no_blas_or_lapack_call_in_the_package():
    """No ``@`` and no numpy entry point that reaches BLAS or LAPACK."""
    found = [f"{file}:{node.lineno}" for file, node, name in package_nodes()
             if isinstance(getattr(node, "op", None), ast.MatMult) or name in BLAS_NAMES]
    assert found == []


def test_no_call_that_imports_numpy_ma_in_the_package():
    """No numpy percentile, median or set operation, and no ``np.unique``
    that returns only the distinct values; ``segregation._percentiles``
    takes every band and quintile."""
    def bare_unique(node):
        return (isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == "unique"
                and not UNIQUE_RETURNS & {k.arg for k in node.keywords})

    found = [f"{file}:{node.lineno}" for file, node, name in package_nodes()
             if name in MA_NAMES or bare_unique(node)]
    assert found == []


def test_commands_leave_numpy_ma_unimported(tmp_path):
    """One fresh interpreter runs the ten commands on the smoke city: the
    six single-pass ones import neither ``numpy.ma`` nor ``numpy.random``,
    and the four resampling ones do not import ``numpy.ma``."""
    city = tmp_path / "city"
    assert main(["synth", "--out", str(city), *SYNTH_ARGS]) == 0
    flags = dict(COMMANDS)
    runs = [[command, "--data", str(city), "--out", str(tmp_path / command), *flags[command]]
            for command in (*SINGLE_PASS, *RESAMPLING)]
    code = ("import sys\nfrom segflow.cli import main\n"
            f"for args in {runs!r}:\n"
            "    assert main(args) == 0\n"
            "    print(args[0], 'numpy.ma' in sys.modules, 'numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    imported = {line.split()[0]: line.split()[1:] for line in proc.stdout.splitlines()}
    assert list(imported) == [*SINGLE_PASS, *RESAMPLING]
    assert [c for c in SINGLE_PASS if imported[c] != ["False", "False"]] == []
    assert [c for c in RESAMPLING if imported[c][0] != "False"] == []


def spd_stack(rng, count: int, cond: float | None = None) -> np.ndarray:
    """``count`` random symmetric positive-definite 4 x 4 matrices, of
    scales from 1e-3 to 1e6, and of 2-norm condition number ``cond`` if
    given."""
    q = np.linalg.qr(rng.standard_normal((count, 4, 4)))[0]
    if cond is None:
        lam = rng.uniform(0.1, 10.0, (count, 4))
    else:
        lam = np.broadcast_to(np.geomspace(1.0, 1.0 / cond, 4), (count, 4))
    lam = lam * 10.0 ** rng.uniform(-3, 6, (count, 1))
    K = (q * lam[:, None, :]) @ q.transpose(0, 2, 1)
    return (K + K.transpose(0, 2, 1)) / 2


def test_solve_and_condition_match_lapack():
    rng = np.random.default_rng(0)
    K, v = spd_stack(rng, 500), rng.standard_normal((500, 4))
    np.testing.assert_allclose(_solve(K, v), np.linalg.solve(K, v[..., None])[..., 0],
                               rtol=1e-10)
    np.testing.assert_allclose(_condition(K), np.linalg.cond(K), rtol=1e-10)


def test_each_matrix_is_solved_and_conditioned_alone():
    """A matrix's solution and condition number are bit for bit the same in
    any stack, which lets a grid pick what each of its values alone picks."""
    rng = np.random.default_rng(1)
    K = np.concatenate([spd_stack(rng, 20), spd_stack(rng, 20, cond=1e11)])
    v = rng.standard_normal((40, 4))
    x, cond = _solve(K, v), _condition(K)
    for i in range(40):
        assert _solve(K[i:i + 1], v[i:i + 1])[0].tolist() == x[i].tolist()
        assert _condition(K[i:i + 1])[0] == cond[i]


@pytest.mark.parametrize("factor", [0.5, 0.9, 0.99, 1.01, 1.1, 2.0])
def test_condition_classifies_both_sides_of_the_limit(factor):
    K = spd_stack(np.random.default_rng(2), 200, cond=factor * _COND_LIMIT)
    assert np.array_equal(_condition(K) <= _COND_LIMIT, np.linalg.cond(K) <= _COND_LIMIT)
    assert np.all((_condition(K) <= _COND_LIMIT) == (factor < 1))


def test_exactly_singular_stacks_are_refused():
    """A repeated regressor, a zero row and column, and a zero matrix:
    each stack's condition number is above the limit, inf, or NaN."""
    rng = np.random.default_rng(3)
    X = rng.standard_normal((50, 30, 4))
    X[:, :, 3] = 2.0 * X[:, :, 1]
    collinear = X.transpose(0, 2, 1) @ X
    zero_row = spd_stack(rng, 50)
    zero_row[:, 2, :] = zero_row[:, :, 2] = 0.0
    for K in (collinear, zero_row, np.zeros((5, 4, 4))):
        assert not np.any(_condition(K) <= _COND_LIMIT)


def test_scores_match_their_matrix_product_forms():
    """Newman's r, GINI and the weighted Pearson correlation agree with the
    ``@`` forms they replace to within 1e-12 relative."""
    rng = np.random.default_rng(4)
    for k in (2, 10, 50):
        e = rng.uniform(0, 1, (k, k)) + k * np.eye(k)
        e /= e.sum()
        x = np.sort(rng.uniform(1, 10, k))
        a, b = e.sum(axis=1), e.sum(axis=0)
        mean_a, mean_b = x @ a, x @ b
        cov = x @ e @ x - mean_a * mean_b
        r = cov / np.sqrt((x ** 2 @ a - mean_a ** 2) * (x ** 2 @ b - mean_b ** 2))
        assert _assortativity_e(e, x) == pytest.approx(r, rel=1e-12, abs=0)

        v = rng.exponential(1.0, 10 * k)
        vs, n = np.sort(v), v.size
        want = 2.0 * (np.arange(1, n + 1) @ vs) / (n * v.sum()) - (n + 1) / n
        assert gini(v) == pytest.approx(want, rel=1e-12, abs=0)

        y = v + rng.standard_normal(n)
        w = rng.uniform(0, 1, n)
        w /= w.sum()
        mx, my = w @ v, w @ y
        want = (w @ ((v - mx) * (y - my))) / np.sqrt((w @ (v - mx) ** 2) * (w @ (y - my) ** 2))
        assert pearson(v, y, w) == pytest.approx(want, rel=1e-12, abs=0)

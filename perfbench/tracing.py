"""In-memory span tracer that wraps ringladder's public functions from outside.

Spans are recorded around the calls as they are bound in ``ringladder.sweep``
and ``ringladder.cli`` (the names the pipeline actually calls through), plus
``HamiltonianAction.matvec`` on the class.  Nothing inside ``src/`` changes;
patches are installed for the traced calls only and always restored.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time

import numpy as np

# layer spans a traced pass must record at least once; a refactor that stops
# calling through one of these names fails the traced run instead of quietly
# dropping that layer from the breakdown
REQUIRED_SPANS = (
    "basis.build",
    "hamiltonian.tables",
    "hamiltonian.action",
    "hamiltonian.matvec",
    "eigensolver.solve",
    "entanglement.rdm_pair",
    "entanglement.rdm_block",
    "entanglement.entropy",
    "entanglement.concurrence",
    "entanglement.expectation_T",
    "ferromagnet.entropy",
    "sweep.run",
    "sweep.write_csv",
    "cli.main",
)


def array_nbytes(obj, skip=("basis", "spec")) -> int:
    """Bytes held in numpy arrays reachable from obj.

    Walks attributes, lists, tuples and dicts, so it keeps working when the
    table layout changes (a scipy sparse matrix keeps its arrays as
    attributes too); the shared basis and spec are not counted.
    """
    seen: set[int] = set()

    def walk(x) -> int:
        if id(x) in seen:
            return 0
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            return x.nbytes
        if isinstance(x, (list, tuple)):
            return sum(walk(y) for y in x)
        if isinstance(x, dict):
            return sum(walk(y) for y in x.values())
        if hasattr(x, "__dict__") and not isinstance(x, type):
            return sum(walk(v) for k, v in vars(x).items() if k not in skip)
        return 0

    return walk(obj)


class Tracer:
    """Spans (name, start, end, parent, run id) and counters, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self.run_id = 0

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.run_id))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.run_id)

    def wrap(self, fn, name, on_result=None):
        """fn wrapped in a span; name may be a callable of the arguments."""

        def traced(*args, **kwargs):
            with self.span(name(*args, **kwargs) if callable(name) else name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def note_max(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    @contextlib.contextmanager
    def installed(self):
        """Patch the pipeline's call sites for the duration of the block."""
        import ringladder.cli as cli
        import ringladder.hamiltonian as hamiltonian
        import ringladder.sweep as sweep

        def on_basis(basis):
            self.note_max("basis.dim", basis.dim)

        def on_tables(tables):
            nbytes = array_nbytes(tables)
            self.note_max("tables.nbytes", nbytes)
            self.note_max("tables.dim", tables.basis.dim)

        def on_solve(res):
            self.note_max("eigensolver.residual_max", float(np.max(res.residuals)))

        def rdm_name(state, sites):
            return "entanglement.rdm_pair" if len(sites) == 2 else "entanglement.rdm_block"

        patches = [
            (sweep, "build_sector", "basis.build", on_basis),
            (sweep, "LadderTables", "hamiltonian.tables", on_tables),
            (sweep, "HamiltonianAction", "hamiltonian.action", None),
            (sweep, "lowest_eigenpairs", "eigensolver.solve", on_solve),
            (sweep, "reduced_density_matrix", rdm_name, None),
            (sweep, "von_neumann_entropy", "entanglement.entropy", None),
            (sweep, "concurrence", "entanglement.concurrence", None),
            (sweep, "expectation_T", "entanglement.expectation_T", None),
            (sweep, "write_csv", "sweep.write_csv", None),
            (sweep, "run_sweep", "sweep.run", None),
            (cli, "fm_entropy", "ferromagnet.entropy", None),
            (cli, "main", "cli.main", None),
            (hamiltonian.HamiltonianAction, "matvec", "hamiltonian.matvec", None),
        ]
        saved = []
        try:
            for owner, attr, name, hook in patches:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Span duration minus the time its (sequential) child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict:
        """Per-layer metrics of everything recorded so far."""
        own = self.self_times()
        total: dict[str, float] = {}
        selft: dict[str, float] = {}
        calls: dict[str, int] = {}
        durs: dict[str, list[float]] = {}
        for (name, start, end, parent, _), s in zip(self.spans, own):
            selft[name] = selft.get(name, 0.0) + s
            if parent >= 0 and self.spans[parent][0] == name:
                continue  # a recursive call (write_csv on its open file)
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            durs.setdefault(name, []).append(end - start)

        missing = [n for n in REQUIRED_SPANS if calls.get(n, 0) == 0]
        if missing:
            raise RuntimeError(f"traced run recorded no calls for layer spans {missing}")

        # matvecs issued from inside each solve, found through the parent chain
        names = [sp[0] for sp in self.spans]
        per_solve = {i: 0 for i, n in enumerate(names) if n == "eigensolver.solve"}
        for i, n in enumerate(names):
            if n != "hamiltonian.matvec":
                continue
            p = self.spans[i][3]
            while p >= 0 and names[p] != "eigensolver.solve":
                p = self.spans[p][3]
            if p >= 0:
                per_solve[p] += 1

        dim = self.counters["tables.dim"]
        tables_bytes = self.counters["tables.nbytes"]
        return {
            "basis.build_s": (total["basis.build"], "s"),
            "basis.dim": (self.counters["basis.dim"], "count"),
            "hamiltonian.tables_s": (total["hamiltonian.tables"], "s"),
            "hamiltonian.tables_mb": (tables_bytes / 1e6, "MB"),
            "hamiltonian.action_s": (total["hamiltonian.action"], "s"),
            "hamiltonian.matvec_s": (statistics.median(durs["hamiltonian.matvec"]), "s"),
            "hamiltonian.matvec_calls": (calls["hamiltonian.matvec"], "count"),
            # computed, not measured: the largest operator's tables read once
            # plus the input and output vectors, a floor on traffic per matvec
            "hamiltonian.matvec_bytes": (tables_bytes + 2 * 8 * dim, "B"),
            "hamiltonian.matvec_share": (
                total["hamiltonian.matvec"] / total["sweep.run"], "fraction"
            ),
            "eigensolver.solve_s": (total["eigensolver.solve"], "s"),
            "eigensolver.self_s": (selft["eigensolver.solve"], "s"),
            "eigensolver.matvecs_per_solve": (
                statistics.mean(per_solve.values()), "count"
            ),
            "eigensolver.residual_max": (self.counters["eigensolver.residual_max"], "norm"),
            "entanglement.rdm_pair_s": (total["entanglement.rdm_pair"], "s"),
            "entanglement.rdm_block_s": (total["entanglement.rdm_block"], "s"),
            "entanglement.entropy_s": (total["entanglement.entropy"], "s"),
            "entanglement.concurrence_s": (total["entanglement.concurrence"], "s"),
            "entanglement.expectation_T_s": (total["entanglement.expectation_T"], "s"),
            "ferromagnet.entropy_s": (total["ferromagnet.entropy"], "s"),
            "ferromagnet.calls": (calls["ferromagnet.entropy"], "count"),
            "sweep.self_s": (selft["sweep.run"], "s"),
            "sweep.write_csv_s": (total["sweep.write_csv"], "s"),
            "cli.self_s": (selft["cli.main"], "s"),
        }

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "run": run_id,
                }) + "\n")

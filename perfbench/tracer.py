"""Span tracer that wraps public quditshare names and numpy's dense solvers.

Each traced name is patched in every namespace it is looked up from: the
module that defines it and every ``quditshare`` module that imported it
(``damping`` binds ``fef`` at import time, for instance), while ``np.linalg``
functions are patched on the ``numpy.linalg`` module because the package looks
them up there at call time. Names that no longer exist are reported as absent
and skipped; names that exist but are never called read as 0 calls.

Spans (layer, thread, parent span, start, end) are kept in memory and written
out by the caller once the run ends. Self time is a span's duration minus the
time of the traced spans nested inside it on the same thread; work a
thread-pool worker does is therefore not subtracted from the caller waiting
for it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time

# (layer name, defining module, attribute path)
LAYERS = (
    ("cli.main", "quditshare.cli", "main"),
    ("cli.run_sweep", "quditshare.cli", "run_sweep"),
    ("cli.run_audit", "quditshare.cli", "run_audit"),
    ("jsonio.dumps_fixed", "quditshare.jsonio", "dumps_fixed"),
    ("channels.channel_from_dict", "quditshare.channels", "channel_from_dict"),
    ("damping.advantage_certificate", "quditshare.damping", "advantage_certificate"),
    ("measures.fef", "quditshare.measures", "fef"),
    ("measures.negativity", "quditshare.measures", "negativity"),
    ("measures.negativity_of_matrix", "quditshare.measures", "negativity_of_matrix"),
    ("search.maximize_negativity_input", "quditshare.search", "maximize_negativity_input"),
    ("channels.apply_one_sided", "quditshare.channels", "apply_one_sided"),
    ("channels.top_choi_eigenpair", "quditshare.channels", "top_choi_eigenpair"),
    ("channels.dual", "quditshare.channels", "dual"),
    ("channels.random_channel", "quditshare.channels", "random_channel"),
    ("channels.KrausChannel.init", "quditshare.channels", "KrausChannel.__init__"),
    ("states.DensityOperator.init", "quditshare.states", "DensityOperator.__init__"),
    ("states.schmidt", "quditshare.states", "schmidt"),
    ("linalg.svd", "numpy.linalg", "svd"),
    ("linalg.eigh", "numpy.linalg", "eigh"),
    ("linalg.eigvalsh", "numpy.linalg", "eigvalsh"),
)
LAYER_NAMES = tuple(name for name, _, _ in LAYERS)
_LAYER_ID = {name: i for i, name in enumerate(LAYER_NAMES)}
_SEARCH = _LAYER_ID["search.maximize_negativity_input"]
_EIGENSOLVES = frozenset((_LAYER_ID["linalg.eigh"], _LAYER_ID["linalg.eigvalsh"]))
_FEF = _LAYER_ID["measures.fef"]

# A FEF result counts as useful work when it beats the Phi+ overlap of the
# same state by more than this margin.
FEF_IMPROVED_MARGIN = 1e-12


def _phiplus_overlap(matrix) -> float:
    """<Phi+|rho|Phi+> from the raw matrix, with no linalg call."""
    n = matrix.shape[0]
    d = int(round(n ** 0.5))
    idx = [i * (d + 1) for i in range(d)]
    return float(matrix[idx][:, idx].sum().real) / d


class _ThreadState:
    """Per-thread counters and span buffer; only its own thread writes it."""

    def __init__(self, index: int, n_layers: int):
        self.index = index
        self.stack = []  # [layer id, span id, child seconds]
        self.calls = [0] * n_layers
        self.self_s = [0.0] * n_layers
        self.eig_in_search = 0
        self.search_depth = 0
        self.fef_seen = 0
        self.fef_improved = 0
        self.fef_unscored = 0
        self.spans = []


class Tracer:
    """Install with :meth:`install`, run the traced code, then :meth:`remove`.

    Counters and spans accumulate across install/remove cycles; callers take
    :meth:`totals` before and after a region and subtract.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._span_ids = itertools.count()
        self._patches = []
        self.absent = []

    # -- per-thread state ---------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                st = _ThreadState(len(self._threads), len(LAYERS))
                self._threads.append(st)
            self._local.state = st
            return st

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer_id: int, fn):
        clock = time.perf_counter
        state = self._state
        next_id = self._span_ids.__next__
        is_search = layer_id == _SEARCH
        is_eig = layer_id in _EIGENSOLVES
        is_fef = layer_id == _FEF

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            stack = st.stack
            parent = stack[-1][1] if stack else -1
            frame = [layer_id, next_id(), 0.0]
            stack.append(frame)
            if is_search:
                st.search_depth += 1
            elif is_eig and st.search_depth:
                st.eig_in_search += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                st.calls[layer_id] += 1
                st.self_s[layer_id] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if is_search:
                    st.search_depth -= 1
                st.spans.append((layer_id, frame[1], parent, t0, t1))
            if is_fef:
                # Scoring reads fef's argument and result; a call whose shapes
                # are not the expected ones is counted as unscored, never
                # raised into the traced program.
                try:
                    rho = args[0] if args else kwargs["rho"]
                    improved = (float(result.value) - _phiplus_overlap(rho.matrix)
                                > FEF_IMPROVED_MARGIN)
                except Exception:
                    st.fef_unscored += 1
                else:
                    st.fef_seen += 1
                    st.fef_improved += improved
            return result

        return wrapper

    def install(self) -> None:
        """Patch every traced name that exists; record the ones that do not."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "quditshare" or n.startswith("quditshare."))]
        for layer_id, (name, module_name, attr) in enumerate(LAYERS):
            try:
                home = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            owner_path, _, leaf = attr.rpartition(".")
            owner = home
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            orig = owner.__dict__.get(leaf) if owner is not None else None
            if orig is None or not callable(orig):
                self.absent.append(name)
                continue
            wrapper = self._wrap(layer_id, orig)
            if owner_path:
                # a method: patch it on its class, where every caller finds it
                self._patches.append((owner, leaf, orig))
                setattr(owner, leaf, wrapper)
                continue
            for ns in [home, *namespaces]:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        self._patches.append((ns, key, orig))
                        setattr(ns, key, wrapper)

    def remove(self) -> None:
        for ns, key, orig in reversed(self._patches):
            setattr(ns, key, orig)
        self._patches = []

    # -- results ------------------------------------------------------------

    def totals(self) -> dict:
        """Counters summed over every thread so far."""
        calls = [0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        out = {"eig_in_search": 0, "fef_seen": 0, "fef_improved": 0, "fef_unscored": 0}
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for i in range(len(LAYERS)):
                calls[i] += st.calls[i]
                self_s[i] += st.self_s[i]
            out["eig_in_search"] += st.eig_in_search
            out["fef_seen"] += st.fef_seen
            out["fef_improved"] += st.fef_improved
            out["fef_unscored"] += st.fef_unscored
        out["calls"] = dict(zip(LAYER_NAMES, calls))
        out["self_s"] = dict(zip(LAYER_NAMES, self_s))
        return out

    def spans(self):
        """(layer, thread index, span id, parent span id, start, end) tuples."""
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for layer_id, span_id, parent, t0, t1 in st.spans:
                yield LAYER_NAMES[layer_id], st.index, span_id, parent, t0, t1
